//! The benchmark's own timing, at the boundary of each public call it
//! makes into a layer. Every call is timed (wall and CPU seconds), traced
//! or not; a traced recorder also keeps spans and reduces them to self
//! time per layer (a span's duration minus the time its children cover).

use crate::host::{self, now};

/// The layer boundaries the benchmark times, one per public entry point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One timed pass of a workload: the root, so its self time is the
    /// benchmark's own bookkeeping between layer calls.
    Pass,
    /// `CharacterizationProblem::build` (calibration simulation included).
    Build,
    /// `seed::find_first_point`.
    Seed,
    /// `tracer::trace`.
    Tracer,
    /// `surface::generate`.
    Surface,
    /// `montecarlo::run`.
    MonteCarlo,
    /// `TransientAnalysis::run`.
    Transient,
}

impl Layer {
    const COUNT: usize = 7;

    /// Every layer, in declaration order.
    pub const ALL: [Layer; Layer::COUNT] = [
        Layer::Pass,
        Layer::Build,
        Layer::Seed,
        Layer::Tracer,
        Layer::Surface,
        Layer::MonteCarlo,
        Layer::Transient,
    ];
}

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub layer: Layer,
    /// The cell (or fixture) the call worked on.
    pub label: &'static str,
    /// Transient simulations the call performed.
    pub sims: u64,
    pub wall_s: f64,
    /// User + system CPU seconds, all threads; NaN if unreadable.
    pub cpu_s: f64,
    /// Host speed around the call (see [`host::speed`]).
    pub speed: f64,
}

/// Call timer and, when traced, in-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    traced: bool,
    /// Whether calls sample the host speed (timed passes only).
    sample_speed: bool,
    /// Child time accumulated under each open span, innermost last.
    open: Vec<f64>,
    self_s: [f64; Layer::COUNT],
    calls: Vec<Call>,
}

impl Spans {
    /// A recorder that keeps spans (the traced runs).
    pub fn traced() -> Spans {
        Spans {
            traced: true,
            sample_speed: true,
            open: Vec::new(),
            self_s: [0.0; Layer::COUNT],
            calls: Vec::new(),
        }
    }

    /// A recorder that only times calls (the untraced runs).
    pub fn untraced() -> Spans {
        Spans {
            traced: false,
            ..Spans::traced()
        }
    }

    /// A recorder for set-up and checks: times calls without sampling the
    /// host speed around them, so the caller's own timing stays clean.
    pub fn quiet() -> Spans {
        Spans {
            sample_speed: false,
            ..Spans::untraced()
        }
    }

    /// Runs `f` inside a span of `layer` (a no-op wrapper when untraced).
    pub fn run<T>(&mut self, layer: Layer, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.traced {
            return f(self);
        }
        self.open.push(0.0);
        let t0 = now();
        let out = f(self);
        let total = t0.elapsed().as_secs_f64();
        let children = self.open.pop().unwrap_or(0.0);
        self.close(layer, total, children);
        out
    }

    /// Times one public call on `label`; `f` returns the call's result and
    /// the simulations it performed.
    pub fn call<T>(
        &mut self,
        layer: Layer,
        label: &'static str,
        f: impl FnOnce() -> (T, u64),
    ) -> T {
        let sample = || {
            if self.sample_speed {
                host::speed()
            } else {
                1.0
            }
        };
        let speed_before = sample();
        let cpu0 = host::cpu_seconds().unwrap_or(f64::NAN);
        let t0 = now();
        let (out, sims) = f();
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = host::cpu_seconds().unwrap_or(f64::NAN) - cpu0;
        let speed = 0.5 * (speed_before + sample());
        if self.traced {
            self.close(layer, wall_s, 0.0);
        }
        self.calls.push(Call {
            layer,
            label,
            sims,
            wall_s,
            cpu_s,
            speed,
        });
        out
    }

    fn close(&mut self, layer: Layer, total: f64, children: f64) {
        self.self_s[layer as usize] += total - children;
        if let Some(parent) = self.open.last_mut() {
            *parent += total;
        }
    }

    /// Removes and returns the calls timed so far.
    pub fn take_calls(&mut self) -> Vec<Call> {
        std::mem::take(&mut self.calls)
    }

    /// Accumulated self time of `layer`, in seconds (0 when untraced).
    pub fn self_seconds(&self, layer: Layer) -> f64 {
        self.self_s[layer as usize]
    }
}

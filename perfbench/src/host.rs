//! Host measurements: the wall clock, CPU time and peak resident memory
//! read from `/proc` (Linux only; elsewhere the reads fail and the
//! benchmark exits without a result), and the host's current speed.

use std::fs;
use std::hint::black_box;
use std::time::Instant;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux
/// fixes `USER_HZ` at 100 on every architecture it runs on.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds consumed so far by this process, all threads
/// included (finished threads stay accounted to the process).
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    // The command name (field 2) may contain spaces; fields after its
    // closing parenthesis are space-separated, utime/stime being the
    // 14th and 15th fields overall.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| format!("malformed /proc/self/stat field {}", i + 3))
    };
    // `rest` starts at field 3 (state), so utime (14) is index 11.
    Ok((ticks(11)? + ticks(12)?) / USER_HZ)
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// CPUs this process may run on.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The benchmark's sanctioned wall clock (clippy.toml reserves
/// `Instant::now` for instrumentation; timing is this program's job).
#[allow(clippy::disallowed_methods)]
pub fn now() -> Instant {
    Instant::now()
}

/// Dense systems solved per speed sample (about 2.3 ms).
const REFERENCE_REPS: u64 = 2000;
/// Seconds one speed sample takes on the 2-CPU Xeon host the bounds were
/// set on, when no neighbour contends for its cores.
const REFERENCE_NOMINAL_S: f64 = 2.3e-3;

/// How fast this host runs numeric code right now, relative to nominal
/// (1.0; about 0.65 while a neighbour contends for the core).
///
/// On a shared host the same computation takes up to 1.8x longer for
/// tens of seconds at a time. A fixed kernel that is no part of the
/// program under test (12x12 LU with partial pivoting and a solve, on
/// pseudo-random data) slows down with it, so timings are reported as
/// `seconds x speed`: seconds at nominal host speed.
pub fn speed() -> f64 {
    let t0 = now();
    black_box(reference_kernel(black_box(REFERENCE_REPS)));
    REFERENCE_NOMINAL_S / t0.elapsed().as_secs_f64()
}

/// Solves `reps` diagonally dominant 12x12 systems; returns a checksum.
fn reference_kernel(reps: u64) -> f64 {
    const N: usize = 12;
    let mut a = [0.0f64; N * N];
    let mut b = [0.0f64; N];
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut checksum = 0.0;
    for _ in 0..reps {
        for v in a.iter_mut() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            *v = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        }
        for (i, bi) in b.iter_mut().enumerate() {
            a[i * N + i] += 4.0;
            *bi = (i as f64 * 0.37).exp();
        }
        for k in 0..N {
            let pivot = (k..N)
                .max_by(|&x, &y| a[x * N + k].abs().total_cmp(&a[y * N + k].abs()))
                .unwrap_or(k);
            if pivot != k {
                for j in 0..N {
                    a.swap(k * N + j, pivot * N + j);
                }
                b.swap(k, pivot);
            }
            for i in k + 1..N {
                let f = a[i * N + k] / a[k * N + k];
                for j in k..N {
                    a[i * N + j] -= f * a[k * N + j];
                }
                b[i] -= f * b[k];
            }
        }
        for i in (0..N).rev() {
            let s: f64 = (i + 1..N).map(|j| a[i * N + j] * b[j]).sum();
            b[i] = (b[i] - s) / a[i * N + i];
        }
        checksum += b.iter().sum::<f64>();
    }
    checksum
}

//! In-run speed calibration.
//!
//! The benchmark's host is a small virtual machine whose effective CPU
//! speed drifts by tens of percent within seconds, with the load its
//! neighbours put on shared cores. A fixed kernel — integer hashing over
//! random reads of a 64 KiB table — is timed throughout each measured
//! window by a sampler thread. Its relative speed `v = REF_NS / t_kernel`
//! is 1 at the reference speed, and host-time metrics are reported at
//! that speed: rates divided by the window's mean `v`, durations
//! multiplied by it. Runs taken at different moments then compare better;
//! the raw figures are printed as notes. The sampler costs about 1% of
//! one core.
//!
//! The table is small on purpose: a kernel whose table competes with the
//! workload for the private caches measured the benchmark's own load as
//! much as the neighbours', and tracked run-to-run drift worse.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Nanoseconds the kernel takes at the reference speed.
const REF_NS: f64 = 50_000.0;
/// Pause between samples.
const PERIOD: Duration = Duration::from_millis(20);
/// Kernel runs per sample; the fastest is kept, which drops runs the
/// scheduler interrupted.
const TRIES: usize = 2;
/// Table entries (64 KiB of `u32`).
const TABLE: u32 = 1 << 14;

fn kernel(table: &[u32]) -> u32 {
    let mut x: u32 = 0x9E37_79B9;
    let mut acc: u32 = 0;
    for i in 0..20_000u32 {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        acc = acc.wrapping_add(table[((x ^ acc) as usize) & (table.len() - 1)]).rotate_left(i & 7);
    }
    acc
}

/// One sample of the relative speed.
fn sample(table: &[u32]) -> f64 {
    let fastest = (0..TRIES)
        .map(|_| {
            let t = Instant::now();
            black_box(kernel(black_box(table)));
            t.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min);
    REF_NS / fastest
}

/// Samples the relative speed until stopped.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<f64>>,
}

impl Sampler {
    pub fn start() -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let table: Vec<u32> = (0..TABLE).map(|i| i.wrapping_mul(0x85EB_CA6B)).collect();
            let mut speeds = vec![sample(&table)];
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(PERIOD);
                speeds.push(sample(&table));
            }
            speeds
        });
        Sampler { stop, handle }
    }

    /// Stop sampling; the window's mean relative speed.
    pub fn finish(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        let speeds = self.handle.join().expect("the sampler thread does not panic");
        speeds.iter().sum::<f64>() / speeds.len() as f64
    }
}

/// Run `f` with the speed sampled meanwhile: its result, wall seconds
/// and the window's mean relative speed.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let sampler = Sampler::start();
    let t = Instant::now();
    let out = f();
    let secs = t.elapsed().as_secs_f64();
    (out, secs, sampler.finish())
}

/// Set up `reps` times with the speed sampled meanwhile: the median
/// set-up time at the reference speed and raw, and the last instance
/// built (earlier ones are dropped outside the timing).
pub fn setup<T>(reps: usize, mut build: impl FnMut() -> T) -> (f64, f64, T) {
    let sampler = Sampler::start();
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let built = build();
        secs.push(t.elapsed().as_secs_f64());
        last = Some(built);
    }
    let raw = crate::stats::median(&secs);
    (raw * sampler.finish(), raw, last.expect("at least one set-up"))
}

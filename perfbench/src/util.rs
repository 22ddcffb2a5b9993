//! Small helpers: a seeded RNG, order statistics, process and machine
//! readings, and the in-memory span recorder.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// SplitMix64: a tiny deterministic generator, so every input the benchmark
/// makes is a function of `--seed` alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Linear-interpolated quantile (`q` in `[0, 1]`) of unsorted samples;
/// 0.0 for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// `num / den`, 0.0 when the denominator is zero (the workload did not
/// exercise the layer).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Size in KiB of the level-`level` unified or data cache of CPU 0, from
/// sysfs; 0 when the machine does not say.
pub fn cache_kib(level: u32) -> u64 {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    (0..8)
        .filter_map(|i| {
            let read = |f: &str| std::fs::read_to_string(format!("{base}/index{i}/{f}")).ok();
            let this_level: u32 = read("level")?.trim().parse().ok()?;
            let kind = read("type")?;
            (this_level == level && kind.trim() != "Instruction").then_some(())?;
            let size = read("size")?;
            let size = size.trim();
            match size.strip_suffix('K') {
                Some(kib) => kib.parse().ok(),
                None => size.strip_suffix('M').and_then(|m| m.parse::<u64>().ok()).map(|m| m << 10),
            }
        })
        .next()
        .unwrap_or(0)
}

/// `(steal, total)` CPU ticks of the whole machine, from `/proc/stat`. On a
/// shared virtual machine the stolen share of a run (time its vCPUs were
/// runnable but the host ran someone else) is what moves absolute timings
/// most between runs.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|line| line.strip_prefix("cpu "))
        .map(|rest| rest.split_whitespace().filter_map(|t| t.parse().ok()).collect())
        .unwrap_or_default();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, now: *mut Timespec) -> i32;
}

/// Linux clock ids.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Reading of a CPU-time clock in seconds; 0.0 if the clock cannot be read.
fn cpu_clock_secs(clock: i32) -> f64 {
    let mut now = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `now` is a valid, writable `struct timespec` for the call.
    if unsafe { clock_gettime(clock, &mut now) } != 0 {
        return 0.0;
    }
    now.tv_sec as f64 + now.tv_nsec as f64 / 1e9
}

/// CPU time of this process, all its threads. It counts only the time the
/// process ran, not the time it waited for a CPU, so on a busy shared
/// machine it moves less than wall time.
pub fn process_cpu_secs() -> f64 {
    cpu_clock_secs(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread.
pub fn thread_cpu_secs() -> f64 {
    cpu_clock_secs(CLOCK_THREAD_CPUTIME_ID)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One finished span: a named interval around a call into the program,
/// linked to the span that caused it.
struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    start: Duration,
    end: Duration,
}

/// Benchmark-side spans, kept in memory while the workload runs and written
/// out once at the end. A disabled recorder still times (callers need the
/// durations for the end-to-end metrics) but stores nothing.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    done: Mutex<Vec<Span>>,
}

/// A span that has started and not yet ended.
pub struct OpenSpan<'a> {
    spans: &'a Spans,
    pub id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
}

impl OpenSpan<'_> {
    /// End the span; returns its duration.
    pub fn close(self) -> Duration {
        let end = Instant::now();
        self.spans.record(self.id, self.parent, self.name, self.start, end);
        end - self.start
    }
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans { enabled, epoch: Instant::now(), next_id: AtomicU64::new(1), done: Mutex::default() }
    }

    /// A fresh span id.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn open(&self, name: &'static str, parent: u64) -> OpenSpan<'_> {
        OpenSpan { spans: self, id: self.id(), parent, name, start: Instant::now() }
    }

    /// Run `f` inside a span named `name`; returns its result and duration.
    pub fn time<R>(&self, name: &'static str, parent: u64, f: impl FnOnce() -> R) -> (R, Duration) {
        let span = self.open(name, parent);
        let out = f();
        (out, span.close())
    }

    /// Record an interval measured elsewhere (e.g. a wire request from its
    /// scheduled send time to its answer).
    pub fn record(&self, id: u64, parent: u64, name: &'static str, start: Instant, end: Instant) {
        if self.enabled {
            let span = Span {
                id,
                parent,
                name,
                start: start.saturating_duration_since(self.epoch),
                end: end.saturating_duration_since(self.epoch),
            };
            self.done.lock().expect("span recorder poisoned").push(span);
        }
    }

    /// Durations in ms of every recorded span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        let done = self.done.lock().expect("span recorder poisoned");
        done.iter().filter(|s| s.name == name).map(|s| ms(s.end - s.start)).collect()
    }

    /// Write every span as a JSON array to `path`; a no-op when disabled.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if !self.enabled {
            return Ok(());
        }
        let done = self.done.lock().expect("span recorder poisoned");
        let mut out = String::from("[\n");
        for (i, s) in done.iter().enumerate() {
            let sep = if i + 1 == done.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{},\"end_us\":{}}}{sep}",
                s.id,
                s.parent,
                s.name,
                s.start.as_micros(),
                s.end.as_micros()
            );
        }
        out.push_str("]\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_like_numpy_linear() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn rng_is_a_function_of_the_seed() {
        let a: Vec<u64> = (0..4).scan(Rng::new(7), |r, _| Some(r.next_u64())).collect();
        let b: Vec<u64> = (0..4).scan(Rng::new(7), |r, _| Some(r.next_u64())).collect();
        assert_eq!(a, b);
        assert_ne!(a, (0..4).scan(Rng::new(8), |r, _| Some(r.next_u64())).collect::<Vec<_>>());
    }
}

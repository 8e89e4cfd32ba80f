//! What every workload shares: the command line, the result record, the
//! paper's benchmark inputs, set-up timing and process measurements.

use crate::calib::Calibration;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Where runs keep their scratch files and write their records, relative
/// to the checkout root the benchmark runs from.
pub const OUT_DIR: &str = ".perfbench-out";

/// Set-ups per run: at least [`MIN_SETUPS`], and more while they have
/// taken less than [`SETUP_SECONDS`] in total, up to [`MAX_SETUPS`];
/// `setup_s` is their median, so a cheap set-up is still read off many.
pub const MIN_SETUPS: usize = 3;
/// See [`MIN_SETUPS`].
pub const MAX_SETUPS: usize = 50;
/// See [`MIN_SETUPS`].
pub const SETUP_SECONDS: f64 = 2.0;

/// The parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement window, seconds.
    pub seconds: f64,
    /// `true` for the traced per-layer run.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <n> --trace <0|1>`.
    ///
    /// # Errors
    ///
    /// A message naming the bad or missing flag.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => {
                    seed = Some(
                        value
                            .parse::<u64>()
                            .map_err(|_| format!("bad seed {value}"))?,
                    )
                }
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 1.0)
                        .ok_or_else(|| format!("bad seconds {value}"))?;
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad trace {value}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Ops attempted (chips, requests or explorations).
    pub attempted: u64,
    /// Ops that failed, or whose outputs failed a correctness check.
    pub failed: u64,
    /// Metrics to report.
    pub metrics: Vec<Metric>,
    /// Raw per-op samples behind the metrics, by series name.
    pub samples: Vec<(String, Vec<f64>)>,
    /// Human-readable reasons for every failed check.
    pub problems: Vec<String>,
}

impl RunResult {
    /// Counts one op, failed when `problem` is set.
    pub fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.fail(p);
        }
    }

    /// Counts a failed check against an op already counted.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }

    /// Appends `value` to the raw sample series `name`.
    pub fn sample(&mut self, name: &str, value: f64) {
        match self.samples.iter_mut().find(|(n, _)| n == name) {
            Some((_, xs)) => xs.push(value),
            None => self.samples.push((name.to_string(), vec![value])),
        }
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }
}

/// Runs `setup` repeatedly (see [`MIN_SETUPS`]), each after a calibration
/// point, and returns the last result with the median set-up time scaled
/// to the reference speed by those points (see [`crate::calib`]), seconds;
/// every raw set-up time goes into `out`'s raw samples. Earlier results
/// are dropped before the next set-up starts, so only one is ever alive.
pub fn timed_setup<T, E>(
    out: &mut RunResult,
    calib: &mut Calibration,
    mut setup: impl FnMut() -> Result<T, E>,
) -> Result<(T, f64), E> {
    let first = calib.points().len();
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < MIN_SETUPS
        || (times.len() < MAX_SETUPS && times.iter().sum::<f64>() < SETUP_SECONDS)
    {
        drop(last.take());
        let (result, ms) = calib.time(&mut setup);
        last = Some(result?);
        times.push(ms / 1e3);
    }
    let median = crate::stats::median(&times).unwrap_or(f64::NAN);
    let scale = calib.scale_since(first);
    out.samples.push(("setup_raw_s".to_string(), times));
    out.samples.push(("setup_scale".to_string(), vec![scale]));
    Ok((last.expect("at least one set-up ran"), median * scale))
}

/// Reports the end-to-end metrics of a run: `setup_s` as
/// [`timed_setup`] scaled it, and the mean op wall over the run's whole
/// passes, which weighs every op of the fixed set equally and is the
/// passes' wall per op, scaled to the reference speed by the run's
/// calibration (see [`crate::calib`]). The raw op walls go into the
/// samples as `series`, with the kernel times and the scale.
pub fn end_to_end(
    out: &mut RunResult,
    setup_s: f64,
    walls_ms: &[f64],
    calib: &Calibration,
    series: &str,
) {
    let scale = calib.scale();
    let op_ms = crate::stats::mean(walls_ms).unwrap_or(f64::NAN);
    out.metric("setup_s", setup_s, "s");
    out.metric("op_mean_ms", op_ms * scale, "ms");
    out.samples.push((series.to_string(), walls_ms.to_vec()));
    out.samples
        .push(("calib_ms".to_string(), calib.points().to_vec()));
    out.samples.push(("calib_scale".to_string(), vec![scale]));
}

/// Whether another whole pass over a fixed op set fits in the window:
/// `passes` passes have taken `elapsed` seconds, and the next is expected
/// to take their mean. The first pass always runs. Counting whole passes
/// keeps every op of the set equally weighted in a run's figures, however
/// fast the machine is.
pub fn another_pass(passes: usize, elapsed: f64, seconds: f64) -> bool {
    passes == 0 || elapsed * (passes + 1) as f64 / passes as f64 <= seconds
}

/// A fresh scratch directory for this process under [`OUT_DIR`].
///
/// # Errors
///
/// I/O errors creating it.
pub fn scratch_dir(tag: &str) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(OUT_DIR).join(format!("work-{}-{tag}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU time this process has used so far, seconds (user + system).
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / CLOCK_TICKS_PER_SECOND)
}

/// `sysconf(_SC_CLK_TCK)`: 100 on every Linux configuration the benchmark
/// targets (there is no libc binding here to ask).
const CLOCK_TICKS_PER_SECOND: f64 = 100.0;

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checkout's git revision, or `unknown` when the working directory
/// is not the root of a git repository (git is not asked to search the
/// directories above it).
pub fn git_rev() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Escapes `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number: finite values with every digit Rust keeps, else `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = Args::parse(&argv(
            "--workload serve_mixed --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "serve_mixed");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 20.0);
        assert!(a.trace);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload x --seed -1 --seconds 5",
            "--workload x --seed 1 --seconds 0",
            "--workload x --seed 1 --seconds 5 --trace 2",
            "--workload x --seed 1",
            "--workload",
            "--bogus 1",
        ] {
            assert!(Args::parse(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_num(1.203_456_789_012_3), "1.2034567890123");
        assert_eq!(json_num(2.0), "2.0");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn whole_passes_run_while_the_next_one_fits() {
        assert!(another_pass(0, 0.0, 30.0));
        assert!(another_pass(0, 100.0, 30.0));
        // One 26 s pass: a second would end at 52 s.
        assert!(!another_pass(1, 26.0, 30.0));
        // Two 9 s passes: a third ends at 27 s, a fourth would not fit.
        assert!(another_pass(2, 18.0, 30.0));
        assert!(!another_pass(3, 27.0, 30.0));
    }

    #[test]
    fn setup_reports_the_median_and_keeps_the_last_result() {
        let mut n = 0;
        let mut out = RunResult::default();
        let mut calib = Calibration::new();
        let (last, secs) = timed_setup(&mut out, &mut calib, || -> Result<usize, ()> {
            n += 1;
            Ok(n)
        })
        .unwrap();
        // A set-up this cheap never reaches the time floor.
        assert_eq!(last, MAX_SETUPS);
        assert!(secs >= 0.0);
        let mut slow = 0;
        let (last, _) = timed_setup(&mut out, &mut calib, || -> Result<usize, ()> {
            slow += 1;
            std::thread::sleep(std::time::Duration::from_millis(700));
            Ok(slow)
        })
        .unwrap();
        assert_eq!(last, MIN_SETUPS);
        assert_eq!(out.samples[0].1.len(), MAX_SETUPS);
        assert_eq!(out.samples[2].1.len(), MIN_SETUPS);
        // Each call scales by its own points: one before each set-up.
        assert_eq!(out.samples[3].1, vec![calib.scale_since(MAX_SETUPS)]);
        assert_eq!(calib.points().len(), MAX_SETUPS + MIN_SETUPS);
    }
}

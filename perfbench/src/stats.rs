//! Sample summaries and the machine fingerprint every result carries.

use std::process::Command;

/// Median and quartiles of a set of repeated samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarises `samples`; `None` when there are none.
    ///
    /// The quartiles are Python's `statistics.quantiles(samples, n=4)`
    /// (its default "exclusive" method), so the spreads printed here
    /// are the ones a comparison of two commits computes.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        match n {
            0 => None,
            1 => Some(Summary {
                n,
                q1: s[0],
                median: s[0],
                q3: s[0],
            }),
            _ => {
                let cut = |i: usize| {
                    // Exact integer rescaling of cut point i/4 onto the
                    // n+1 gaps, clamped to interpolate between s[0] and
                    // s[n-1] (extrapolating at the ends, as Python does).
                    let m = (n + 1) as i64;
                    let j = (i as i64 * m / 4).clamp(1, n as i64 - 1);
                    let delta = i as i64 * m - j * 4;
                    let j = j as usize;
                    (s[j - 1] * (4 - delta) as f64 + s[j] * delta as f64) / 4.0
                };
                Some(Summary {
                    n,
                    q1: cut(1),
                    median: cut(2),
                    q3: cut(3),
                })
            }
        }
    }
}

/// The tail rule: the highest of the 50th, 90th, 99th and 99.9th
/// percentiles that still has at least ten samples beyond it, as
/// `(percentile, value)`, using the nearest-rank definition. `None`
/// when even the median has fewer than ten samples above it.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    // Percentiles in per-mille, so the nearest rank is exact integer
    // arithmetic: rank = ceil(permille * n / 1000).
    [999, 990, 900, 500]
        .into_iter()
        .find_map(|permille: usize| {
            let rank = (permille * n).div_ceil(1000);
            (rank >= 1 && n - rank >= 10).then(|| (permille as f64 / 10.0, s[rank - 1]))
        })
}

/// Where and from what a result was measured.
#[derive(Clone, Debug)]
pub struct Fingerprint {
    /// Hardware threads available to this process.
    pub nproc: usize,
    /// The `model name` line of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc -V`.
    pub rustc: String,
    /// `git rev-parse HEAD` of the working directory, or `unknown`.
    pub git_sha: String,
    /// The workload seed.
    pub seed: u64,
}

impl Fingerprint {
    /// Collects the fingerprint of this machine and checkout.
    pub fn collect(seed: u64) -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, m)| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        // Keep git inside the working directory: outside a repository
        // it must report `unknown`, not the SHA of an enclosing one.
        let ceiling = std::env::current_dir()
            .ok()
            .and_then(|d| d.parent().map(|p| p.to_path_buf()))
            .unwrap_or_default();
        Fingerprint {
            nproc: nproc(),
            cpu_model,
            rustc: command_line(Command::new("rustc").arg("-V")),
            git_sha: command_line(
                Command::new("git")
                    .args(["rev-parse", "HEAD"])
                    .env("GIT_CEILING_DIRECTORIES", ceiling),
            ),
            seed,
        }
    }

    /// The fingerprint as one JSON object.
    pub fn to_json(&self) -> String {
        use symbol_obs::json::string;
        format!(
            "{{\"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"git_sha\": {}, \"seed\": {}}}",
            self.nproc,
            string(&self.cpu_model),
            string(&self.rustc),
            string(&self.git_sha),
            self.seed
        )
    }
}

/// Hardware threads available to this process (at least 1).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First output line of a command that succeeded, else `unknown`.
fn command_line(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(|l| l.trim().to_string())
        })
        .filter(|l| !l.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(v: &[f64]) -> (f64, f64, f64) {
        let s = Summary::of(v).expect("non-empty");
        (s.q1, s.median, s.q3)
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Reference values from Python 3.11 `statistics.quantiles(v, n=4)`.
        assert_eq!(summary(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 3.0, 4.5));
        assert_eq!(summary(&[4.0, 1.0, 3.0, 2.0]), (1.25, 2.5, 3.75));
        assert_eq!(summary(&[10.0, 20.0]), (7.5, 15.0, 22.5));
        assert_eq!(
            summary(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]),
            (1.75, 3.5, 5.25)
        );
    }

    #[test]
    fn single_and_empty_sample_sets() {
        assert_eq!(summary(&[7.5]), (7.5, 7.5, 7.5));
        assert_eq!(Summary::of(&[]), None);
        assert_eq!(Summary::of(&[2.0]).map(|s| s.n), Some(1));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_the_percentile() {
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&v), None, "19 samples: only 9 above the median");
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v), Some((50.0, 10.0)));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90.0, 90.0)));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.0, 990.0)));
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.9, 9990.0)));
    }

    #[test]
    fn fingerprint_renders_every_field() {
        let f = Fingerprint {
            nproc: 2,
            cpu_model: "Test \"CPU\"".into(),
            rustc: "rustc 1.0.0".into(),
            git_sha: "unknown".into(),
            seed: 7,
        };
        let v = symbol_obs::json::parse(&f.to_json()).expect("valid JSON");
        assert_eq!(v.get("nproc").and_then(|x| x.as_u64()), Some(2));
        assert_eq!(
            v.get("cpu_model").and_then(|x| x.as_str()),
            Some("Test \"CPU\"")
        );
        assert_eq!(v.get("seed").and_then(|x| x.as_u64()), Some(7));
    }
}

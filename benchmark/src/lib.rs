//! The benchmark of record: deliver, analyze and serve a generated day,
//! end to end (untraced) and per layer (traced). See `README.md` beside
//! this crate for why each workload exists and which layer metric should
//! move which end-to-end metric.

pub mod lifecycle;
pub mod trace;
pub mod workload;

use std::time::Instant;

use lifecycle::{run_pass, Checks, Pass, Shape, QUERIES};
use trace::{busy_and_wall_s, files_per_hour, total_s, Tracer};
use workload::{Day, CLASSES};

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A 14k-user day delivered again and again: the write side.
    Deliver,
    /// An 18k-user day, 1.64 times the block cache: materialization,
    /// scans and operators.
    Analyze,
    /// An 11k-user day with lookups after every hour: the read side
    /// beside index builds.
    Serve,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "deliver" => Some(Workload::Deliver),
            "analyze" => Some(Workload::Analyze),
            "serve" => Some(Workload::Serve),
            _ => None,
        }
    }

    /// Users in the generated day.
    pub fn users(self) -> u64 {
        match self {
            Workload::Deliver => 14_000,
            Workload::Analyze => 18_000,
            Workload::Serve => 11_000,
        }
    }

    /// Seconds one round measures, about, on a shared 2-vCPU virtual
    /// machine.
    fn round_s(self) -> f64 {
        match self {
            Workload::Deliver => 11.0,
            Workload::Analyze => 14.0,
            Workload::Serve => 8.0,
        }
    }

    /// What one pass runs: one round per [`Workload::round_s`] of
    /// `seconds`, rounded up, so that every run of a workload does the same
    /// work.
    fn shape(self, seconds: f64) -> Shape {
        let rounds = (seconds / self.round_s()).ceil().max(1.0) as usize;
        match self {
            Workload::Deliver => Shape {
                rounds,
                lookups_per_hour: 0,
                lookups_per_round: 340,
            },
            Workload::Analyze => Shape {
                rounds,
                lookups_per_hour: 0,
                lookups_per_round: 340,
            },
            Workload::Serve => Shape {
                rounds,
                lookups_per_hour: 25,
                lookups_per_round: 0,
            },
        }
    }
}

/// One invocation.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Overrides the workload's population (smoke tests).
    pub users: Option<u64>,
}

/// Set-ups an untraced run times; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// What one invocation reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of `v`: the mean of the middle two when their count is even,
/// 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Mean of `v` without its lowest and highest tenth (0 when empty).
pub fn trimmed_mean(v: &[f64]) -> f64 {
    let s = sorted(v);
    let cut = s.len() / 10;
    let middle = &s[cut..s.len() - cut];
    if middle.is_empty() {
        return 0.0;
    }
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Nearest-rank quantile `q` of `v` (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    let s = sorted(v);
    if s.is_empty() {
        return 0.0;
    }
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn users(opts: &Options) -> u64 {
    opts.users.unwrap_or(opts.workload.users())
}

/// Generates the day `setups` times, timing each; returns the last day and
/// the median set-up time.
fn set_up(opts: &Options, setups: usize) -> (Day, f64) {
    let mut times = Vec::new();
    let mut day = None;
    for _ in 0..setups {
        drop(day.take());
        let t = Instant::now();
        day = Some(Day::generate(users(opts), opts.seed));
        times.push(t.elapsed().as_secs_f64());
        eprintln!("set-up: {:.3} s", times[times.len() - 1]);
    }
    (day.expect("at least one set-up"), median(&times))
}

/// Work the traced and untraced passes share, for the overhead figure.
fn common_s(p: &Pass) -> f64 {
    p.deliver_s.first().copied().unwrap_or(0.0)
        + p.materialize_s.first().copied().unwrap_or(0.0)
        + p.raw_passes
            .first()
            .map_or(0.0, |q| q.iter().map(|s| s.seconds).sum())
        + p.sequence_passes.first().map_or(0.0, |s| s.0 + s.1)
        + p.lookups.iter().map(|l| l.ms / 1e3).sum::<f64>()
}

fn lookup_ms(p: &Pass, class: Option<usize>) -> Vec<f64> {
    p.lookups
        .iter()
        .filter(|l| class.is_none_or(|c| l.class == c))
        .map(|l| l.ms)
        .collect()
}

/// Runs one invocation.
pub fn run(opts: &Options) -> Outcome {
    let mut checks = Checks::default();
    let metrics = if opts.trace {
        traced_metrics(opts, &mut checks)
    } else {
        end_to_end_metrics(opts, &mut checks)
    };
    Outcome {
        correct: checks.failed == 0,
        attempted: checks.attempted,
        failed: checks.failed,
        metrics,
    }
}

fn end_to_end_metrics(opts: &Options, checks: &mut Checks) -> Vec<(String, f64, &'static str)> {
    let (day, setup_s) = set_up(opts, SETUPS);
    let shape = opts.workload.shape(opts.seconds);
    let p = run_pass(day, &shape, opts.seed, None, None, checks);

    let raw: Vec<f64> = p
        .raw_passes
        .iter()
        .map(|q| q.iter().map(|s| s.seconds).sum())
        .collect();
    let seq: Vec<f64> = p.sequence_passes.iter().map(|(a, b)| a + b).collect();
    let all = lookup_ms(&p, None);
    let mut m: Vec<(String, f64, &'static str)> = vec![
        ("setup_s".into(), setup_s, "s"),
        (
            "deliver_records_per_s".into(),
            median(&p.deliver_rates),
            "rec/s",
        ),
        (
            "hour_visible_ms_p50".into(),
            median(&p.hour_visible_ms),
            "ms",
        ),
        ("materialize_s".into(), median(&p.materialize_s), "s"),
        ("raw_query_s".into(), median(&raw), "s"),
        ("sequence_query_s".into(), median(&seq), "s"),
        (
            "lookups_per_s".into(),
            all.len() as f64 / (all.iter().sum::<f64>() / 1e3),
            "1/s",
        ),
        ("lookup_ms_p99".into(), quantile(&all, 0.99), "ms"),
    ];
    // `count` is left out here: its median moved by up to 46% of itself
    // between runs (see README), over any bound an end-to-end metric may
    // carry, so it is reported per layer as `serve.count_ms_p50`.
    // `top_names` takes about 1.1 ms after some lookups and 2.1 ms after
    // others, in near-equal shares, so its median sits on the edge between
    // the two and jumps between runs; its trimmed mean moves with the
    // shares instead.
    for (c, class) in CLASSES.iter().enumerate() {
        let ms = lookup_ms(&p, Some(c));
        match *class {
            "count" => {}
            "top_names" => m.push((format!("{class}_ms_tmean"), trimmed_mean(&ms), "ms")),
            _ => m.push((format!("{class}_ms_p50"), median(&ms), "ms")),
        }
    }
    m.push(("peak_rss_mb".into(), peak_rss_mb(), "MB"));
    m
}

fn traced_metrics(opts: &Options, checks: &mut Checks) -> Vec<(String, f64, &'static str)> {
    // Untraced reference pass, then the traced pass, on the same inputs.
    let shape = opts.workload.shape(0.0);
    let (day, _) = set_up(opts, 1);
    let plain = run_pass(day, &shape, opts.seed, None, None, checks);
    let (day, _) = set_up(opts, 1);
    let tracer = Tracer::new();
    let registry = uli_obs::Registry::new();
    let p = run_pass(
        day,
        &shape,
        opts.seed,
        Some(tracer.clone()),
        Some(registry),
        checks,
    );
    let spans = tracer.spans();
    let records = p.moved.max(1) as f64;

    let move_s = total_s(&spans, "scribe.move");
    let (land_busy, land_wall) = busy_and_wall_s(&spans, "warehouse.land");
    let serve_tap = total_s(&spans, "serve.tap");
    let stream_tap = total_s(&spans, "stream.tap");
    let mut m: Vec<(String, f64, &'static str)> = vec![
        ("scribe.log_s".into(), total_s(&spans, "scribe.log"), "s"),
        ("scribe.step_s".into(), total_s(&spans, "scribe.step"), "s"),
        (
            "scribe.flush_seal_s".into(),
            total_s(&spans, "scribe.flush_seal"),
            "s",
        ),
        ("scribe.move_s".into(), move_s, "s"),
        ("warehouse.land_busy_s".into(), land_busy, "s"),
        ("warehouse.land_wall_s".into(), land_wall, "s"),
        (
            "warehouse.land_parallelism".into(),
            land_busy / land_wall.max(1e-9),
            "ratio",
        ),
        (
            "warehouse.files_per_hour".into(),
            files_per_hour(&spans),
            "count",
        ),
        (
            "scribe.move_other_s".into(),
            move_s - land_wall - serve_tap - stream_tap,
            "s",
        ),
        ("serve.tap_s".into(), serve_tap, "s"),
        ("stream.tap_s".into(), stream_tap, "s"),
        (
            "scribe.wire_bytes_per_record".into(),
            p.wire_bytes as f64 / records,
            "B",
        ),
        (
            "scribe.network_messages".into(),
            p.network_messages as f64,
            "count",
        ),
        (
            "scribe.decode_bytes_per_record".into(),
            p.decode_bytes as f64 / records,
            "B",
        ),
        (
            "warehouse.landed_bytes_per_record".into(),
            p.landed_bytes as f64 / records,
            "B",
        ),
        ("serve.postings_bytes".into(), p.postings_bytes as f64, "B"),
        (
            "core.dictionary_s".into(),
            total_s(&spans, "core.dictionary"),
            "s",
        ),
        (
            "core.sessionize_s".into(),
            total_s(&spans, "core.sessionize"),
            "s",
        ),
        (
            "core.sequence_bytes_per_event".into(),
            p.sequence_bytes as f64 / records,
            "B",
        ),
        ("warehouse.scan_s".into(), p.scan_s, "s"),
        (
            "warehouse.scan_mb_per_s".into(),
            p.scan_bytes as f64 / 1e6 / p.scan_s.max(1e-9),
            "MB/s",
        ),
        (
            "warehouse.scan_cache_hit_ratio".into(),
            p.raw_scan.cache_hit_rate(),
            "ratio",
        ),
    ];
    let first = p.raw_passes.first().cloned().unwrap_or_default();
    for (label, q) in QUERIES.iter().zip(&first) {
        let s = &q.stats;
        m.push((format!("dataflow.{label}_s"), q.seconds, "s"));
        m.push((
            format!("dataflow.{label}.decoded_bytes"),
            s.input_bytes_uncompressed as f64,
            "B",
        ));
        m.push((
            format!("dataflow.{label}.blocks_read"),
            s.input_blocks as f64,
            "count",
        ));
        m.push((
            format!("dataflow.{label}.blocks_skipped"),
            s.blocks_skipped as f64,
            "count",
        ));
        m.push((
            format!("dataflow.{label}.spill_bytes"),
            s.spill_bytes as f64,
            "B",
        ));
        m.push((
            format!("dataflow.{label}.cost_model_ms"),
            q.cost_model_ms,
            "ms",
        ));
    }
    m.push(("dataflow.raw_query_s_w1".into(), p.raw_serial_s, "s"));
    let mut inversions = 0;
    for i in 0..first.len() {
        for j in i + 1..first.len() {
            let by_cost = first[i].cost_model_ms - first[j].cost_model_ms;
            let by_wall = first[i].seconds - first[j].seconds;
            if by_cost * by_wall < 0.0 {
                inversions += 1;
            }
        }
    }
    m.push((
        "dataflow.cost_model_inversions".into(),
        inversions as f64,
        "count",
    ));
    m.push((
        "analytics.count_script_s".into(),
        median(&p.sequence_passes.iter().map(|s| s.0).collect::<Vec<_>>()),
        "s",
    ));
    m.push((
        "analytics.funnel_script_s".into(),
        median(&p.sequence_passes.iter().map(|s| s.1).collect::<Vec<_>>()),
        "s",
    ));
    m.push((
        "analytics.raw_over_sequence_decoded_ratio".into(),
        p.raw_pattern_bytes as f64 / p.sequence_pattern_bytes.max(1) as f64,
        "ratio",
    ));
    for (c, class) in CLASSES.iter().enumerate() {
        let of_class: Vec<_> = p.lookups.iter().filter(|l| l.class == c).collect();
        let n = of_class.len().max(1) as f64;
        m.push((
            format!("serve.{class}.decoded_bytes_per_lookup"),
            of_class
                .iter()
                .map(|l| l.stats.decoded_bytes as f64)
                .sum::<f64>()
                / n,
            "B",
        ));
        m.push((
            format!("serve.{class}.groups_read_per_lookup"),
            of_class
                .iter()
                .map(|l| l.stats.groups_read as f64)
                .sum::<f64>()
                / n,
            "count",
        ));
    }
    m.push(("serve.index_bytes".into(), p.index_bytes, "B"));
    m.push((
        "serve.count_ms_p50".into(),
        median(&lookup_ms(&p, CLASSES.iter().position(|c| *c == "count"))),
        "ms",
    ));
    m.push((
        "warehouse.lookup_cache_hit_ratio".into(),
        p.lookup_scan.cache_hit_rate(),
        "ratio",
    ));
    // Every client-thread span is a root or the mover's; a root's
    // duration is its self time plus its children's covered time.
    let attributed: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.duration_s())
        .sum();
    m.push((
        "unattributed_share".into(),
        (p.wall_s - attributed) / p.wall_s,
        "ratio",
    ));
    m.push((
        "obs.tracing_overhead_share".into(),
        (common_s(&p) - common_s(&plain)) / common_s(&plain),
        "ratio",
    ));
    m
}

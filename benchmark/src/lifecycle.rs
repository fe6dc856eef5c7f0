//! One pass over a day's life: deliver it hour by hour through the
//! production Scribe path, materialize and query it, and serve point
//! lookups from its indexes. Every call into a layer goes through its
//! public API; with a tracer attached, each call is also a span.

use std::sync::Arc;
use std::time::Instant;

use uli_analytics::register_analytics;
use uli_core::client_event::{ClientEventLoader, CLIENT_EVENTS_CATEGORY, CLIENT_EVENT_SCHEMA};
use uli_core::session::{day_dir, sequences_dir, EventDictionary, Materializer};
use uli_core::{ClientEventLanding, EventName, EventPattern};
use uli_dataflow::{
    Agg, DataflowResult, Engine, Expr, JobStats, Parallelism, Plan, ScalarUdf, ScriptRunner,
    SortOrder, Value,
};
use uli_obs::Registry;
use uli_scribe::{LogEntry, PipelineConfig, ScribePipeline};
use uli_serve::{IndexMaintainer, LookupStats, ServeHandle};
use uli_stream::{StreamAnalytics, StreamConfig};
use uli_warehouse::{sniff_columnar, ColumnarFile, ScanStats, Warehouse, WarehouseResult};
use uli_workload::signup_funnel;

use crate::trace::{TimedLanding, TimedTap, Tracer};
use crate::workload::{
    Day, Lookup, LookupMix, AGGREGATORS_PER_DC, DATACENTERS, HOSTS_PER_DC, RECORDS_PER_FILE,
    WORKERS,
};

/// The event pattern both the raw-log count and the §5.2 sequence count
/// answer.
pub const MENTIONS: &str = "web:home:mentions:*";

/// Sequence-suite passes run after each raw-suite query.
pub const SEQUENCE_PASSES_PER_QUERY: usize = 15;

/// The raw-log query suite, in report order.
pub const QUERIES: [&str; 4] = [
    "events-per-user",
    "sketch-by-name",
    "top-20-latest",
    "mentions-count",
];

/// What one pass runs.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Rounds in the pass; every round delivers the day on a fresh
    /// pipeline, then runs one analysis round.
    pub rounds: usize,
    /// Lookups issued after each delivered hour.
    pub lookups_per_hour: usize,
    /// Lookups each analysis round issues against the whole delivered
    /// day, a few after each of its sequence-suite passes.
    pub lookups_per_round: usize,
}

/// Tally of operations and failed ones; a failure is a record not
/// delivered, an `Err` from a layer, or an output check that does not
/// match.
#[derive(Debug, Default, Clone, Copy)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Records one operation; `ok` false marks it failed and says why on
    /// stderr.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }
}

/// One lookup's outcome.
#[derive(Debug, Clone, Copy)]
pub struct LookupSample {
    pub class: usize,
    pub ms: f64,
    pub stats: LookupStats,
}

/// One raw-suite query's outcome.
#[derive(Debug, Clone, Default)]
pub struct QuerySample {
    pub seconds: f64,
    pub stats: JobStats,
    pub cost_model_ms: f64,
}

/// What one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Records moved into the main warehouse.
    pub moved: u64,
    /// Per delivery: from each hour's first `log` to its `move_hour`
    /// return, summed.
    pub deliver_s: Vec<f64>,
    /// Per delivery: records moved over `deliver_s`.
    pub deliver_rates: Vec<f64>,
    /// Per hour of every delivery: last `log` return to `move_hour`
    /// return, milliseconds.
    pub hour_visible_ms: Vec<f64>,
    pub network_messages: u64,
    pub wire_bytes: u64,
    pub decode_bytes: u64,
    pub landed_bytes: u64,
    pub postings_bytes: u64,
    /// Mean encoded size of one hour's index.
    pub index_bytes: f64,
    /// Per materialization: `run_day(0)`.
    pub materialize_s: Vec<f64>,
    pub sequence_bytes: u64,
    /// Per raw-suite pass: per query.
    pub raw_passes: Vec<Vec<QuerySample>>,
    /// Per sequence-suite pass: (count script s, funnel script s).
    pub sequence_passes: Vec<(f64, f64)>,
    /// Decoded bytes of the raw mentions count and of the §5.2 script.
    pub raw_pattern_bytes: u64,
    pub sequence_pattern_bytes: u64,
    /// Warehouse scan counters across the first raw-suite pass.
    pub raw_scan: ScanStats,
    pub lookups: Vec<LookupSample>,
    /// Warehouse scan counters across every lookup.
    pub lookup_scan: ScanStats,
    /// Traced passes only: the plain scan and the serial raw suite.
    pub scan_s: f64,
    pub scan_bytes: u64,
    pub raw_serial_s: f64,
    /// Wall time of the whole pass.
    pub wall_s: f64,
}

/// Matches a raw event name against an [`EventPattern`]: the raw-log side
/// of the §5.2 count.
struct MatchesPattern(EventPattern);

impl ScalarUdf for MatchesPattern {
    fn name(&self) -> &'static str {
        "MatchesPattern"
    }

    fn eval(&self, args: &[Value]) -> DataflowResult<Value> {
        let hit = match args.first() {
            Some(Value::Str(s)) => EventName::parse(s).is_ok_and(|n| self.0.matches(&n)),
            _ => false,
        };
        Ok(Value::Bool(hit))
    }
}

fn raw_suite() -> Vec<(&'static str, Plan)> {
    let load = || {
        Plan::load(
            day_dir(CLIENT_EVENTS_CATEGORY, 0),
            Arc::new(ClientEventLoader),
            CLIENT_EVENT_SCHEMA.to_vec(),
        )
    };
    let pattern = EventPattern::parse(MENTIONS).expect("static pattern parses");
    let matches: Arc<dyn ScalarUdf> = Arc::new(MatchesPattern(pattern));
    vec![
        (QUERIES[0], load().aggregate_by(vec![2], vec![Agg::count()])),
        (
            QUERIES[1],
            load().aggregate_by(
                vec![1],
                vec![
                    Agg::approx_count_distinct(2),
                    Agg::approx_percentile(5, 0.95),
                ],
            ),
        ),
        (
            QUERIES[2],
            load()
                .order_by(vec![(5, SortOrder::Desc), (2, SortOrder::Asc)])
                .limit(20),
        ),
        (
            QUERIES[3],
            load()
                .filter(Expr::udf(matches, vec![Expr::col(1)]))
                .aggregate(vec![Agg::count()]),
        ),
    ]
}

fn int(v: Option<&Value>) -> Option<i64> {
    match v {
        Some(Value::Int(i)) => Some(*i),
        _ => None,
    }
}

/// Builds the pipeline with the columnar landing and both taps, wrapped
/// for timing when tracing.
fn build_pipeline(
    tracer: &Option<Arc<Tracer>>,
    registry: &Option<Registry>,
) -> (ScribePipeline, IndexMaintainer, StreamAnalytics) {
    let config = PipelineConfig {
        datacenters: DATACENTERS,
        hosts_per_dc: HOSTS_PER_DC,
        aggregators_per_dc: AGGREGATORS_PER_DC,
        records_per_file: RECORDS_PER_FILE,
        workers: Parallelism::fixed(WORKERS),
        ..Default::default()
    };
    let workers = Parallelism::fixed(WORKERS);
    let mut pipe = match registry {
        Some(r) => ScribePipeline::new_with_obs(config, r),
        None => ScribePipeline::new(config),
    };
    let main = pipe.main_warehouse().clone();
    let (maintainer, stream) = match registry {
        Some(r) => (
            IndexMaintainer::with_obs(main, CLIENT_EVENTS_CATEGORY, r),
            StreamAnalytics::with_obs(StreamConfig::default(), r),
        ),
        None => (
            IndexMaintainer::new(main, CLIENT_EVENTS_CATEGORY),
            StreamAnalytics::new(StreamConfig::default()),
        ),
    };
    let maintainer = maintainer.with_parallelism(workers);
    let stream = stream.with_parallelism(workers);
    match tracer {
        Some(t) => {
            pipe.set_columnar_landing(Arc::new(TimedLanding {
                inner: ClientEventLanding::default(),
                tracer: t.clone(),
            }));
            pipe.add_delivery_tap(Box::new(TimedTap {
                inner: maintainer.tap(),
                name: "serve.tap",
                tracer: t.clone(),
            }));
            pipe.add_delivery_tap(Box::new(TimedTap {
                inner: stream.tap(),
                name: "stream.tap",
                tracer: t.clone(),
            }));
        }
        None => {
            pipe.set_columnar_landing(Arc::new(ClientEventLanding::default()));
            pipe.add_delivery_tap(maintainer.tap());
            pipe.add_delivery_tap(stream.tap());
        }
    }
    (pipe, maintainer, stream)
}

/// What a lookup returned, reduced to what its check compares.
enum Answer {
    /// Rows returned (`user_events`) or events across sessions
    /// (`sessions`), or the count (`count`).
    Total(u64),
    /// `top_names` rows as (name, count).
    Top(Vec<(String, u64)>),
}

fn span_name(class: usize) -> &'static str {
    [
        "serve.user_events",
        "serve.sessions",
        "serve.count",
        "serve.top_names",
    ][class]
}

/// Issues `l` against the serving layer.
fn ask(handle: &ServeHandle, l: &Lookup) -> WarehouseResult<(Answer, LookupStats)> {
    Ok(match l {
        Lookup::UserEvents { user, hour } => {
            let a = handle.user_events(*user, *hour)?;
            (Answer::Total(a.rows.len() as u64), a.stats)
        }
        Lookup::Sessions { user } => {
            let (sessions, stats) = handle.sessions(*user, 0)?;
            let events = sessions.iter().map(|s| s.events.len() as u64).sum();
            (Answer::Total(events), stats)
        }
        Lookup::Count { name, hours } => {
            let a = handle.count(name, hours.iter().copied());
            // A missing or negative count never equals a tally.
            let n = int(a.rows.first().and_then(|r| r.first()))
                .and_then(|n| u64::try_from(n).ok())
                .unwrap_or(u64::MAX);
            (Answer::Total(n), a.stats)
        }
        Lookup::TopNames { hour } => {
            let a = handle.top_names(*hour, 10);
            let rows = a
                .rows
                .iter()
                .map(|r| match (r.first(), int(r.get(1))) {
                    // A malformed row never equals a tally.
                    (Some(Value::Str(name)), Some(n)) => {
                        (name.clone(), u64::try_from(n).unwrap_or(u64::MAX))
                    }
                    _ => (String::new(), u64::MAX),
                })
                .collect();
            (Answer::Top(rows), a.stats)
        }
    })
}

/// Whether `answer` matches the tallies kept from generation.
fn answer_ok(day: &Day, l: &Lookup, indexed: &[u64], answer: &Answer) -> bool {
    match (l, answer) {
        (Lookup::UserEvents { user, hour }, Answer::Total(n)) => {
            *n == day.user_hour_events(*user, *hour)
        }
        (Lookup::Sessions { user }, Answer::Total(n)) => {
            *n == indexed
                .iter()
                .map(|&h| day.user_hour_events(*user, h))
                .sum::<u64>()
        }
        (Lookup::Count { name, hours }, Answer::Total(n)) => *n == day.name_events(name, hours),
        (Lookup::TopNames { hour }, Answer::Top(rows)) => *rows == day.top_names(*hour, 10),
        _ => false,
    }
}

/// One closed-loop client working through a day.
struct Client<'a> {
    day: Day,
    shape: Shape,
    tracer: Option<Arc<Tracer>>,
    registry: Option<Registry>,
    mix: LookupMix,
    next_req: u64,
    pass: Pass,
    checks: &'a mut Checks,
}

/// What a delivery left behind for the later phases.
struct Delivered {
    warehouse: Warehouse,
    maintainer: IndexMaintainer,
}

impl Client<'_> {
    /// Runs `f` as a span when tracing, plainly otherwise.
    fn traced<T>(&self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        match &self.tracer {
            Some(t) => t.span(name, req, f),
            None => f(),
        }
    }

    fn request(&mut self) -> u64 {
        self.next_req += 1;
        self.next_req
    }

    /// Delivers `hours` hour by hour through a fresh pipeline; with
    /// lookups per hour, the client queries the hours indexed so far
    /// between hours.
    fn deliver(&mut self, hours: Vec<Vec<(usize, Vec<u8>)>>) -> Delivered {
        let (mut pipe, maintainer, stream) = build_pipeline(&self.tracer, &self.registry);
        let handle = maintainer.handle();
        let wh = pipe.main_warehouse().clone();
        let mut moved_hours = Vec::new();
        let (mut moved_total, mut decode_bytes, mut deliver_s) = (0u64, 0u64, 0f64);
        for (h, payloads) in hours.into_iter().enumerate() {
            let hour = h as u64;
            if payloads.is_empty() {
                continue;
            }
            let logged = payloads.len() as u64;
            let t0 = Instant::now();
            self.traced("scribe.log", hour, || {
                for (i, (dc, bytes)) in payloads.into_iter().enumerate() {
                    pipe.log(
                        dc,
                        i % HOSTS_PER_DC,
                        LogEntry::new(CLIENT_EVENTS_CATEGORY, bytes),
                    );
                }
            });
            let t_logged = Instant::now();
            self.traced("scribe.step", hour, || pipe.step());
            self.traced("scribe.flush_seal", hour, || {
                pipe.flush_hour(hour);
                pipe.seal_hour(CLIENT_EVENTS_CATEGORY, hour);
            });
            let moved = self.traced("scribe.move", hour, || {
                pipe.move_hour(CLIENT_EVENTS_CATEGORY, hour)
            });
            let t_moved = Instant::now();
            match moved {
                Ok(report) => {
                    self.checks
                        .check(report.records == logged, "hour moved every logged record");
                    moved_total += report.records;
                    decode_bytes += report.decode_bytes;
                    moved_hours.push(hour);
                }
                Err(e) => self.checks.check(false, &format!("move_hour {hour}: {e}")),
            }
            deliver_s += (t_moved - t0).as_secs_f64();
            self.pass
                .hour_visible_ms
                .push((t_moved - t_logged).as_secs_f64() * 1e3);
            if self.shape.lookups_per_hour > 0 {
                self.lookups(&handle, &wh, self.shape.lookups_per_hour);
            }
        }

        let events = self.day.events();
        let report = pipe.report();
        self.checks.check(
            moved_total == events && report.moved == events,
            "moved records equal generated events",
        );
        self.checks
            .check(report.duplicates_merged == 0, "no duplicates merged");
        let running = self.traced("stream.running_view", 0, || stream.running_view());
        self.checks.check(
            *running.by_name() == self.day.name_totals(),
            "stream by_name totals equal generated per-name counts",
        );
        self.checks.check(
            maintainer.indexed_hours() == moved_hours,
            "serve index covers every moved hour",
        );
        let hour_bytes: Vec<u64> = self.traced("serve.hour_index", 0, || {
            moved_hours
                .iter()
                .filter_map(|&h| maintainer.hour_index(h))
                .map(|i| uli_serve::hour::encode(&i).len() as u64)
                .collect()
        });
        let p = &mut self.pass;
        p.moved = moved_total;
        p.decode_bytes = decode_bytes;
        p.deliver_rates.push(moved_total as f64 / deliver_s);
        p.deliver_s.push(deliver_s);
        (p.network_messages, p.wire_bytes) = pipe.network().message_cost();
        p.landed_bytes = wh
            .dir_meta(&day_dir(CLIENT_EVENTS_CATEGORY, 0))
            .map_or(0, |m| m.compressed_bytes);
        p.postings_bytes = maintainer.postings_bytes();
        p.index_bytes = hour_bytes.iter().sum::<u64>() as f64 / hour_bytes.len().max(1) as f64;
        Delivered {
            warehouse: wh,
            maintainer,
        }
    }

    /// Issues `n` lookups against the hours indexed so far, timing each
    /// and checking its answer.
    fn lookups(&mut self, handle: &ServeHandle, wh: &Warehouse, n: usize) {
        let indexed = handle.indexed_hours();
        if n == 0 || indexed.is_empty() {
            return;
        }
        let before = wh.stats();
        for _ in 0..n {
            let l = self.mix.next(&self.day, &indexed);
            let class = l.class();
            let req = self.request();
            let start = Instant::now();
            let result = self.traced(span_name(class), req, || ask(handle, &l));
            let ms = start.elapsed().as_secs_f64() * 1e3;
            let (ok, stats) = match &result {
                Ok((answer, stats)) => (answer_ok(&self.day, &l, &indexed, answer), *stats),
                Err(_) => (false, LookupStats::default()),
            };
            self.checks.check(ok, &format!("lookup {l:?}"));
            self.pass.lookups.push(LookupSample { class, ms, stats });
        }
        self.pass.lookup_scan = add(self.pass.lookup_scan, wh.stats().since(&before));
    }

    /// Materializes the day's session sequences through the two public
    /// passes `run_day(0)` is made of, one span each when tracing, and
    /// returns the dictionary.
    fn materialize(&mut self, mat: &Materializer) -> Option<EventDictionary> {
        let t = Instant::now();
        let materialized = self
            .traced("core.dictionary", 0, || mat.build_dictionary(0))
            .and_then(|dict| {
                self.traced("core.sessionize", 0, || mat.materialize_sequences(0, &dict))
            });
        let seconds = t.elapsed().as_secs_f64();
        self.pass.materialize_s.push(seconds);
        match materialized {
            Ok(r) => {
                eprintln!("materialized {} sessions in {seconds:.3} s", r.sessions);
                self.checks.check(
                    r.events == self.day.events(),
                    "materializer saw every event",
                );
                self.pass.sequence_bytes = r.sequences_compressed_bytes;
                self.traced("core.load_dictionary", 0, || mat.load_dictionary(0))
                    .ok()
            }
            Err(e) => {
                self.checks.check(false, &format!("materialize: {e}"));
                None
            }
        }
    }

    /// One analysis round over the delivered day: materialize it, then run
    /// the raw suite with sequence-suite passes after each of its queries,
    /// and a few of the round's lookups after each sequence-suite pass.
    fn analyze(&mut self, d: &Delivered) {
        let wh = &d.warehouse;
        let handle = d.maintainer.handle();
        let first = self.pass.raw_passes.is_empty();
        let workers = Parallelism::fixed(WORKERS);
        let mat = Materializer::new(wh.clone()).with_parallelism(workers);
        let dict = self.materialize(&mat);
        if first && self.tracer.is_some() {
            scan_pass(wh, self);
        }
        let engine = match &self.registry {
            Some(r) => Engine::new(wh.clone()).with_obs(r),
            None => Engine::new(wh.clone()),
        }
        .with_parallelism(workers);
        let runner = dict.map(|d: EventDictionary| {
            let mut r = ScriptRunner::new(Engine::new(wh.clone()).with_parallelism(workers));
            register_analytics(&mut r, d);
            r.set_param("EVENTS", MENTIONS);
            r.set_param(
                "DATE",
                sequences_dir(0)
                    .as_str()
                    .trim_start_matches("/session_sequences/"),
            );
            r
        });
        // Sequence passes and lookups take milliseconds, so a run's median
        // of them would read the host's state in one short window;
        // interleaving them between the raw queries spreads it over the
        // whole round.
        let queries = raw_suite();
        let mut raw_count = None;
        let mut sequence_counts = Vec::new();
        let mut samples = Vec::new();
        for (i, (label, plan)) in queries.iter().enumerate() {
            let before = wh.stats();
            let sample = raw_query(&engine, i, label, plan, &mut raw_count, self);
            if first {
                self.pass.raw_scan = add(self.pass.raw_scan, wh.stats().since(&before));
            }
            samples.push(sample);
            for j in 0..SEQUENCE_PASSES_PER_QUERY {
                if let Some(runner) = &runner {
                    let (s, count) = sequence_pass(runner, self);
                    sequence_counts.push(count);
                    self.pass.sequence_passes.push(s);
                }
                let slot = i * SEQUENCE_PASSES_PER_QUERY + j;
                let slots = queries.len() * SEQUENCE_PASSES_PER_QUERY;
                let n = self.shape.lookups_per_round;
                self.lookups(&handle, wh, n * (slot + 1) / slots - n * slot / slots);
            }
        }
        let raw_s: f64 = samples.iter().map(|s| s.seconds).sum();
        eprintln!("raw suite in {raw_s:.3} s");
        if first {
            self.pass.raw_pattern_bytes = samples[3].stats.input_bytes_uncompressed;
        }
        self.pass.raw_passes.push(samples);
        for count in sequence_counts {
            self.checks.check(
                count.is_some() && count == raw_count,
                "sequence pattern count equals raw-log pattern count",
            );
        }
    }

    /// Runs the raw suite once at 1 worker, timing the whole suite.
    fn serial_raw_suite(&mut self, wh: &Warehouse) {
        let serial = Engine::new(wh.clone()).with_parallelism(Parallelism::serial());
        let t = Instant::now();
        for (label, plan) in raw_suite() {
            let req = self.request();
            let ok = self
                .traced("dataflow.raw_query_w1", req, || serial.run(&plan))
                .is_ok();
            self.checks.check(ok, &format!("serial {label} runs"));
        }
        self.pass.raw_serial_s = t.elapsed().as_secs_f64();
    }
}

/// Runs one pass over `day` in the shape's rounds. A round delivers the
/// day on a fresh pipeline, then runs an analysis round with its lookups
/// against it. Rounds spread every metric's samples over the
/// whole pass, so that no metric reads the host in one short window. A
/// tracer records spans around every layer call; a registry attaches the
/// program's own counters.
pub fn run_pass(
    mut day: Day,
    shape: &Shape,
    seed: u64,
    tracer: Option<Arc<Tracer>>,
    registry: Option<Registry>,
    checks: &mut Checks,
) -> Pass {
    let start = Instant::now();
    let hours = std::mem::take(&mut day.hours);
    let mut client = Client {
        mix: LookupMix::new(&day, seed),
        pass: Pass::default(),
        day,
        shape: *shape,
        tracer,
        registry,
        next_req: 1_000,
        checks,
    };
    let mut delivered: Option<Delivered> = None;
    for _ in 0..shape.rounds.max(1) {
        // The last delivery's warehouse goes before the next is built.
        drop(delivered.take());
        let d = client.deliver(hours.clone());
        eprintln!(
            "delivered {} records in {:.3} s",
            client.pass.moved,
            client.pass.deliver_s[client.pass.deliver_s.len() - 1]
        );
        client.analyze(&d);
        delivered = Some(d);
    }
    if client.tracer.is_some() {
        let d = delivered.as_ref().expect("every pass delivers");
        client.serial_raw_suite(&d.warehouse);
    }
    client.pass.wall_s = start.elapsed().as_secs_f64();
    client.pass
}

/// Sums the cache and byte counters of two scan-counter deltas.
fn add(a: ScanStats, b: ScanStats) -> ScanStats {
    ScanStats {
        uncompressed_bytes_read: a.uncompressed_bytes_read + b.uncompressed_bytes_read,
        cache_hits: a.cache_hits + b.cache_hits,
        cache_misses: a.cache_misses + b.cache_misses,
        ..a
    }
}

/// Runs raw-suite query `i`, checking its output; the mentions count
/// lands in `raw_count`.
fn raw_query(
    engine: &Engine,
    i: usize,
    label: &str,
    plan: &Plan,
    raw_count: &mut Option<i64>,
    c: &mut Client,
) -> QuerySample {
    let events = c.day.events();
    let req = c.request();
    let t = Instant::now();
    let result = c.traced(query_span(i), req, || engine.run(plan));
    let seconds = t.elapsed().as_secs_f64();
    match result {
        Ok(r) => {
            match label {
                "events-per-user" => {
                    let sum: i64 = r.rows.iter().filter_map(|row| int(row.get(1))).sum();
                    c.checks.check(
                        sum as u64 == events,
                        "events-per-user sums to the event count",
                    );
                }
                "mentions-count" => *raw_count = int(r.rows.first().and_then(|row| row.first())),
                "top-20-latest" => c.checks.check(
                    r.rows.len() == 20.min(events as usize),
                    "top-20-latest returns 20 rows",
                ),
                _ => c
                    .checks
                    .check(!r.rows.is_empty(), "sketch-by-name returns rows"),
            }
            QuerySample {
                seconds,
                stats: r.stats,
                cost_model_ms: r.estimated_cluster_ms,
            }
        }
        Err(e) => {
            c.checks.check(false, &format!("query {label}: {e}"));
            QuerySample {
                seconds,
                ..Default::default()
            }
        }
    }
}

fn query_span(i: usize) -> &'static str {
    [
        "dataflow.events-per-user",
        "dataflow.sketch-by-name",
        "dataflow.top-20-latest",
        "dataflow.mentions-count",
    ][i]
}

/// One pass of the session-sequence suite: the §5.2 count and the §5.3
/// funnel. Returns the two scripts' seconds and the §5.2 count.
fn sequence_pass(runner: &ScriptRunner, c: &mut Client) -> ((f64, f64), Option<i64>) {
    let count_script = "define CountClientEvents CountClientEvents('$EVENTS');\n\
         raw = load '/session_sequences/$DATE/' using SessionSequencesLoader();\n\
         generated = foreach raw generate CountClientEvents(sequence) as n;\n\
         grouped = group generated all;\n\
         count = foreach grouped generate SUM(n);\n\
         dump count;";
    let stages: Vec<String> = signup_funnel()
        .stages
        .iter()
        .map(|s| format!("'{}'", s.as_str()))
        .collect();
    let funnel_script = format!(
        "define Funnel ClientEventsFunnel({});\n\
         raw = load '/session_sequences/$DATE/' using SessionSequencesLoader();\n\
         depths = foreach raw generate Funnel(sequence) as depth;\n\
         per_depth = group depths by depth;\n\
         counts = foreach per_depth generate depth, COUNT(*) as sessions;\n\
         ordered = order counts by depth;\n\
         dump ordered;",
        stages.join(", ")
    );

    let req = c.request();
    let t = Instant::now();
    let out = c.traced("analytics.count_script", req, || runner.run(count_script));
    let count_s = t.elapsed().as_secs_f64();
    let count = match out {
        Ok(out) => {
            c.pass.sequence_pattern_bytes = out
                .first()
                .map_or(0, |o| o.result.stats.input_bytes_uncompressed);
            out.first()
                .and_then(|o| int(o.result.rows.first().and_then(|r| r.first())))
        }
        Err(e) => {
            eprintln!("count script: {e}");
            None
        }
    };

    let req = c.request();
    let t = Instant::now();
    let out = c.traced("analytics.funnel_script", req, || {
        runner.run(&funnel_script)
    });
    let funnel_s = t.elapsed().as_secs_f64();
    match out {
        Ok(out) => {
            let rows: Vec<(i64, i64)> = out
                .first()
                .map(|o| {
                    o.result
                        .rows
                        .iter()
                        .filter_map(|r| Some((int(r.first())?, int(r.get(1))?)))
                        .collect()
                })
                .unwrap_or_default();
            let truth = &c.day.truth.funnel_stage_counts;
            let reached: Vec<u64> = (0..truth.len())
                .map(|i| {
                    rows.iter()
                        .filter(|(d, _)| *d > i as i64)
                        .map(|(_, n)| *n as u64)
                        .sum()
                })
                .collect();
            let ok = &reached == truth;
            c.checks.check(ok, "funnel equals planted stage counts");
        }
        Err(e) => c.checks.check(false, &format!("funnel script: {e}")),
    }
    ((count_s, funnel_s), count)
}

/// One decode pass over every landed row group through the public
/// columnar reader, with no operators.
fn scan_pass(wh: &Warehouse, c: &mut Client) {
    let before = wh.stats();
    let t = Instant::now();
    let result = c.traced("warehouse.scan", 0, || -> WarehouseResult<u64> {
        let mut rows = 0u64;
        for file in wh.list_files_recursive(&day_dir(CLIENT_EVENTS_CATEGORY, 0))? {
            if sniff_columnar(wh, &file)?.is_some() {
                let f = ColumnarFile::open(wh, &file)?;
                let projection = vec![true; f.columns()];
                for g in 0..f.group_count() {
                    rows += f.read_group(g, &projection)?.rows() as u64;
                }
            } else {
                rows += wh.open(&file)?.read_all()?.len() as u64;
            }
        }
        Ok(rows)
    });
    c.pass.scan_s = t.elapsed().as_secs_f64();
    c.pass.scan_bytes = wh.stats().since(&before).uncompressed_bytes_read;
    match result {
        Ok(rows) => {
            let ok = rows == c.day.events();
            c.checks.check(ok, "scan reads every landed row");
        }
        Err(e) => c.checks.check(false, &format!("scan: {e}")),
    }
}

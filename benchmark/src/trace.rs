//! Wall-clock spans recorded from outside the program, around each call
//! into a layer's public API, plus the delegating wrappers that time the
//! calls the mover makes into the landing and the taps.
//!
//! Spans stay in memory until the run ends. A span's self time is its
//! duration minus the part of its interval its child spans cover; only
//! the mover's spans have children (the landing and the taps).

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use uli_scribe::DeliveryTap;
use uli_warehouse::{ColumnarLanding, HourlyPartition, Warehouse, WarehouseResult, WhPath};

/// One finished span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// The hour, query or lookup the span served.
    pub request: u64,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        (self.end - self.start) as f64 / 1e9
    }
}

/// The in-memory span recorder. The client thread opens spans with
/// [`Tracer::span`]; calls the program makes back into the benchmark's
/// wrappers, on any thread, record with [`Tracer::child`] under the
/// client's innermost open span.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    /// Id of the client thread's innermost open span, 0 when none.
    current: AtomicU64,
    request: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            current: AtomicU64::new(0),
            request: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// Times `f` as a client-thread span of `request`; spans opened inside
    /// `f` become its children.
    pub fn span<T>(&self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.current.swap(id, Ordering::SeqCst);
        let outer_request = self.request.swap(request, Ordering::SeqCst);
        let start = self.now();
        let out = f();
        let end = self.now();
        self.current.store(parent, Ordering::SeqCst);
        self.request.store(outer_request, Ordering::SeqCst);
        self.push(Span {
            id,
            parent: (parent != 0).then_some(parent),
            name,
            request,
            start,
            end,
        });
        out
    }

    /// Times `f` as a child of the client's innermost open span, from any
    /// thread, without becoming a parent itself.
    pub fn child<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.current.load(Ordering::SeqCst);
        let request = self.request.load(Ordering::SeqCst);
        let start = self.now();
        let out = f();
        let end = self.now();
        self.push(Span {
            id,
            parent: (parent != 0).then_some(parent),
            name,
            request,
            start,
            end,
        });
        out
    }

    /// Every finished span, in finishing order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }
}

/// Total seconds of every span named `name`.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_s)
        .sum()
}

/// Per hour (`request`) of the spans named `name`: summed busy time and
/// the wall time from the first entry to the last exit.
pub fn busy_and_wall_s(spans: &[Span], name: &str) -> (f64, f64) {
    let mut hours: HashMap<u64, (u64, u64, u64)> = HashMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        let e = hours.entry(s.request).or_insert((0, u64::MAX, 0));
        e.0 += s.end - s.start;
        e.1 = e.1.min(s.start);
        e.2 = e.2.max(s.end);
    }
    let busy: u64 = hours.values().map(|h| h.0).sum();
    let wall: u64 = hours.values().map(|h| h.2 - h.1).sum();
    (busy as f64 / 1e9, wall as f64 / 1e9)
}

/// Part files landed per delivered hour: `warehouse.land` spans over the
/// hours (`request`) they served.
pub fn files_per_hour(spans: &[Span]) -> f64 {
    let land: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name == "warehouse.land")
        .collect();
    let hours: HashSet<u64> = land.iter().map(|s| s.request).collect();
    land.len() as f64 / hours.len().max(1) as f64
}

/// Delegating `ColumnarLanding` that records one `warehouse.land` span per
/// `write_file` call.
pub struct TimedLanding<L> {
    pub inner: L,
    pub tracer: Arc<Tracer>,
}

impl<L: ColumnarLanding> ColumnarLanding for TimedLanding<L> {
    fn write_file(
        &self,
        warehouse: &Warehouse,
        path: &WhPath,
        payloads: &[Vec<u8>],
    ) -> WarehouseResult<Vec<usize>> {
        self.tracer.child("warehouse.land", || {
            self.inner.write_file(warehouse, path, payloads)
        })
    }
}

/// Delegating `DeliveryTap` that records one span named `name` per
/// delivered hour.
pub struct TimedTap {
    pub inner: Box<dyn DeliveryTap>,
    pub name: &'static str,
    pub tracer: Arc<Tracer>,
}

impl DeliveryTap for TimedTap {
    fn hour_delivered(&mut self, partition: &HourlyPartition, payloads: &[Vec<u8>]) {
        let inner = &mut self.inner;
        self.tracer
            .child(self.name, || inner.hour_delivered(partition, payloads));
    }
}

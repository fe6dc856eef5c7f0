//! The programmatic query front-end.
//!
//! [`ServeHandle`] answers point lookups by consulting the hour indexes,
//! pruning to the posted row groups, and decoding only those — never a
//! full-day scan. Answers are byte-identical to the batch dataflow
//! engine's over the same delivered hours (the serving layer's contract,
//! pinned by `crate::batch` and the equivalence suite): rows take exactly
//! the tuple shape `ClientEventLoader::parse` produces, in exactly the
//! engine's scan order (files sorted, groups ascending, rows in order).

use std::sync::Arc;

use parking_lot::Mutex;
use uli_core::{
    client_event_from_group, user_id_from_group, ClientEvent, SessionRecord, Sessionizer,
};
use uli_dataflow::{Tuple, Value};
use uli_thrift::record::ThriftRecord;
use uli_warehouse::{ColumnarFile, HourlyPartition, Warehouse, WarehouseResult};

use crate::hour::HourIndex;
use crate::maintain::Inner;

/// What one lookup cost, in the decoded-bytes currency the cost model and
/// E22 use.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LookupStats {
    /// Uncompressed bytes decoded to answer (the ≥50× reduction target).
    pub decoded_bytes: u64,
    /// Row groups actually read.
    pub groups_read: u64,
    /// Row groups the index proved irrelevant and skipped.
    pub groups_pruned: u64,
    /// Files opened.
    pub files_visited: u64,
}

/// One answered lookup: rows in the engine's tuple shape, plus cost.
#[derive(Debug, Clone, Default)]
pub struct ServeAnswer {
    /// Result rows, byte-identical to the batch engine's.
    pub rows: Vec<Tuple>,
    /// What answering cost.
    pub stats: LookupStats,
}

/// Converts a decoded event into the exact tuple
/// [`uli_core::ClientEventLoader`] produces, so serve rows compare
/// byte-identical to engine rows.
pub fn event_tuple(ev: ClientEvent) -> Tuple {
    let details = ev
        .details
        .into_iter()
        .map(|(k, v)| (k, Value::Str(v)))
        .collect();
    vec![
        Value::Str(ev.initiator.to_string()),
        Value::Str(ev.name.as_str().to_string()),
        Value::Int(ev.user_id),
        Value::Str(ev.session_id),
        Value::Str(ev.ip),
        Value::Int(ev.timestamp.millis()),
        Value::Map(details),
    ]
}

/// The serving layer's query handle. Cloneable; shares state with the
/// [`crate::IndexMaintainer`] that created it, so answers always reflect
/// the committed indexes.
#[derive(Clone)]
pub struct ServeHandle {
    inner: Arc<Mutex<Inner>>,
}

impl ServeHandle {
    pub(crate) fn new(inner: Arc<Mutex<Inner>>) -> ServeHandle {
        ServeHandle { inner }
    }

    fn context(&self) -> (Warehouse, String) {
        let inner = self.inner.lock();
        (inner.warehouse.clone(), inner.category.clone())
    }

    fn hour(&self, hour: u64) -> Option<Arc<HourIndex>> {
        self.inner.lock().hours.get(&hour).cloned()
    }

    /// The committed indexes of one day's hours, ascending, under a single
    /// lock acquisition.
    fn day_hours(&self, day: u64) -> Vec<(u64, Arc<HourIndex>)> {
        self.inner
            .lock()
            .hours
            .range(day * 24..(day + 1) * 24)
            .map(|(&hour, index)| (hour, Arc::clone(index)))
            .collect()
    }

    fn note_lookup(&self, stats: &LookupStats) {
        let mut inner = self.inner.lock();
        inner.lookups_served += 1;
        inner.row_groups_pruned += stats.groups_pruned;
        inner.sync_obs();
    }

    /// Hours behind the newest delivered hour the index is.
    pub fn lag_hours(&self) -> u64 {
        self.inner.lock().lag_hours()
    }

    /// Hours with a committed index, ascending.
    pub fn indexed_hours(&self) -> Vec<u64> {
        self.inner.lock().hours.keys().copied().collect()
    }

    /// All events of `user` in `hour`, as engine-shaped tuples. Decodes
    /// only the row groups the user postings name.
    pub fn user_events(&self, user: i64, hour: u64) -> WarehouseResult<ServeAnswer> {
        let (warehouse, category) = self.context();
        let mut answer = ServeAnswer::default();
        if let Some(index) = self.hour(hour) {
            let events =
                collect_user_events(&warehouse, &category, &index, hour, user, &mut answer)?;
            answer.rows = events.into_iter().map(event_tuple).collect();
        }
        self.note_lookup(&answer.stats);
        Ok(answer)
    }

    /// Exact count of events named `name` over `hours`, answered from the
    /// index alone — zero bytes decoded. One row, `[Int count]`, exactly
    /// the global-aggregate row the engine produces.
    pub fn count(&self, name: &str, hours: impl IntoIterator<Item = u64>) -> ServeAnswer {
        let mut total: i64 = 0;
        let mut stats = LookupStats::default();
        for hour in hours {
            if let Some(index) = self.hour(hour) {
                total += index.name_counts.get(name).copied().unwrap_or(0) as i64;
                stats.groups_pruned += index.total_groups();
            }
        }
        self.note_lookup(&stats);
        ServeAnswer {
            rows: vec![vec![Value::Int(total)]],
            stats,
        }
    }

    /// The `k` most frequent event names in `hour`, count descending then
    /// name ascending — the engine's `aggregate_by(name, count) →
    /// order_by(count desc, name asc) → limit k` rows, from the index
    /// alone.
    pub fn top_names(&self, hour: u64, k: usize) -> ServeAnswer {
        let mut stats = LookupStats::default();
        let mut rows = Vec::new();
        if let Some(index) = self.hour(hour) {
            stats.groups_pruned = index.total_groups();
            let mut counts: Vec<(&str, u64)> = index
                .name_counts
                .iter()
                .map(|(name, &count)| (name.as_str(), count))
                .collect();
            counts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
            rows = counts
                .into_iter()
                .take(k)
                .map(|(name, count)| vec![Value::str(name), Value::Int(count as i64)])
                .collect();
        }
        self.note_lookup(&stats);
        ServeAnswer { rows, stats }
    }

    /// The user's sessions over one day (24 hours), sessionized exactly as
    /// the batch materializer does. Decodes only the posted row groups of
    /// the day's indexed hours.
    pub fn sessions(
        &self,
        user: i64,
        day: u64,
    ) -> WarehouseResult<(Vec<SessionRecord>, LookupStats)> {
        let (warehouse, category) = self.context();
        let mut answer = ServeAnswer::default();
        let mut events = Vec::new();
        for (hour, index) in self.day_hours(day) {
            events.extend(collect_user_events(
                &warehouse,
                &category,
                &index,
                hour,
                user,
                &mut answer,
            )?);
        }
        let sessions = Sessionizer::new().sessionize(events);
        self.note_lookup(&answer.stats);
        Ok((sessions, answer.stats))
    }
}

/// Decodes the user's events out of one indexed hour, reading only the
/// posted groups, in engine scan order (files sorted, groups ascending,
/// rows in order). A columnar row becomes a [`ClientEvent`] only once its
/// user-id cell matches; other users' rows sharing a group cost one cell
/// compare. Charges `answer` with the decoded bytes of this lookup's own
/// file handles, so concurrent scans of the warehouse never leak in.
fn collect_user_events(
    warehouse: &Warehouse,
    category: &str,
    index: &HourIndex,
    hour: u64,
    user: i64,
    answer: &mut ServeAnswer,
) -> WarehouseResult<Vec<ClientEvent>> {
    let mut events = Vec::new();
    let total_groups = index.total_groups();
    let mut groups_read = 0u64;
    let mut decoded_bytes = 0u64;
    if let Some(postings) = index.user_postings.get(&user) {
        let dir = HourlyPartition::from_hour_index(category, hour).main_dir();
        for (&file_no, groups) in postings {
            let Some(entry) = index.files.get(file_no as usize) else {
                continue;
            };
            let path = dir.child(&entry.name)?;
            answer.stats.files_visited += 1;
            if entry.columnar {
                let file = ColumnarFile::open(warehouse, &path)?;
                let projection = vec![true; file.columns()];
                for &g in groups {
                    let group = file.read_group(g as usize, &projection)?;
                    groups_read += 1;
                    for row in 0..group.rows() {
                        if user_id_from_group(&file, &group, row) != Some(user) {
                            continue;
                        }
                        if let Some(ev) = client_event_from_group(&file, &group, row) {
                            if ev.user_id == user {
                                events.push(ev);
                            }
                        }
                    }
                }
                decoded_bytes += file.local_stats().uncompressed_bytes_read;
            } else {
                // Row-format sibling: one pseudo-group, whole file.
                groups_read += 1;
                let blocks = warehouse.open_blocks(&path)?;
                for b in 0..blocks.block_count() {
                    blocks.for_each_record(b, |record| {
                        if let Ok(ev) = ClientEvent::from_bytes(record) {
                            if ev.user_id == user {
                                events.push(ev);
                            }
                        }
                    })?;
                }
                decoded_bytes += blocks.local_stats().uncompressed_bytes_read;
            }
        }
    }
    answer.stats.groups_read += groups_read;
    answer.stats.groups_pruned += total_groups - groups_read;
    answer.stats.decoded_bytes += decoded_bytes;
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IndexMaintainer;
    use uli_core::{
        client_event_cells, write_client_events_columnar, ClientEvent, EventInitiator, EventName,
        Timestamp,
    };
    use uli_warehouse::{sniff_columnar, ColumnarFileWriter};

    fn event(user: i64, name: &str, millis: i64) -> ClientEvent {
        ClientEvent::new(
            EventInitiator::CLIENT_USER,
            EventName::parse(name).unwrap(),
            user,
            format!("sess-{user}"),
            "10.0.0.1",
            Timestamp(millis),
        )
    }

    fn serve_over(hour: u64, events: &[ClientEvent], rows_per_group: usize) -> ServeHandle {
        let wh = Warehouse::new();
        let dir = HourlyPartition::from_hour_index("client_events", hour).main_dir();
        write_client_events_columnar(
            &wh,
            &dir.child("part-00000").unwrap(),
            events,
            true,
            rows_per_group,
        )
        .unwrap();
        let m = IndexMaintainer::new(wh, "client_events");
        m.tap().hour_delivered(
            &HourlyPartition::from_hour_index("client_events", hour),
            &[],
        );
        m.handle()
    }

    #[test]
    fn user_events_decodes_only_posted_groups() {
        // 32 events, groups of 8: user 7 appears only in rows 0..8 (group 0).
        let mut events: Vec<ClientEvent> =
            (0..8).map(|i| event(7, "a:b:c:d:e:f", i * 10)).collect();
        events.extend((8..32).map(|i| event(1, "a:b:c:d:e:f", i * 10)));
        let handle = serve_over(0, &events, 8);
        let answer = handle.user_events(7, 0).unwrap();
        assert_eq!(answer.rows.len(), 8);
        assert_eq!(answer.stats.groups_read, 1);
        assert_eq!(answer.stats.groups_pruned, 3);
        assert!(answer.stats.decoded_bytes > 0);
        // Absent user: pure pruning, nothing decoded.
        let absent = handle.user_events(999, 0).unwrap();
        assert!(absent.rows.is_empty());
        assert_eq!(absent.stats.groups_read, 0);
        assert_eq!(absent.stats.decoded_bytes, 0);
        assert_eq!(absent.stats.groups_pruned, 4);
    }

    #[test]
    fn count_and_top_names_answer_from_the_index_alone() {
        let mut events: Vec<ClientEvent> =
            (0..6).map(|i| event(i, "a:b:c:d:e:f", i * 10)).collect();
        events.extend((0..4).map(|i| event(i, "z:y:x:w:v:u", 100 + i * 10)));
        let handle = serve_over(2, &events, 4);
        let count = handle.count("a:b:c:d:e:f", [2]);
        assert_eq!(count.rows, vec![vec![Value::Int(6)]]);
        assert_eq!(count.stats.decoded_bytes, 0);
        let missing = handle.count("no:such:name:x:y:z", [2]);
        assert_eq!(missing.rows, vec![vec![Value::Int(0)]]);
        let top = handle.top_names(2, 1);
        assert_eq!(
            top.rows,
            vec![vec![Value::str("a:b:c:d:e:f"), Value::Int(6)]]
        );
        // Unindexed hour: empty top, zero count.
        assert!(handle.top_names(9, 5).rows.is_empty());
        assert_eq!(
            handle.count("a:b:c:d:e:f", [9]).rows,
            vec![vec![Value::Int(0)]]
        );
    }

    #[test]
    fn sessions_match_the_sessionizer_over_the_raw_events() {
        let events: Vec<ClientEvent> = (0..12)
            .map(|i| event(3, "a:b:c:d:e:f", i * 60_000))
            .collect();
        let handle = serve_over(0, &events, 8);
        let (sessions, stats) = handle.sessions(3, 0).unwrap();
        let expected = Sessionizer::new().sessionize(events);
        assert_eq!(sessions, expected);
        assert!(stats.groups_read > 0);
        let (none, _) = handle.sessions(999, 0).unwrap();
        assert!(none.is_empty());
    }

    /// Users who share every row group of the fixture day, including the
    /// id extremes the little-endian cell compare must get right.
    const SHARED_USERS: [i64; 6] = [0, -1, -42, i64::MIN, i64::MAX, 7];

    fn shared_partition(hour: u64) -> HourlyPartition {
        HourlyPartition::from_hour_index("client_events", hour)
    }

    /// Two hours whose 4-row groups each hold several users. Hour 0 also
    /// has a row-format `-rows` sibling and a second columnar file with an
    /// undecodable row whose user cell reads as user 0.
    fn shared_day() -> (Warehouse, IndexMaintainer) {
        let wh = Warehouse::new();
        let m = IndexMaintainer::new(wh.clone(), "client_events");
        for hour in 0..2u64 {
            let dir = shared_partition(hour).main_dir();
            let base = hour as i64 * 3_600_000;
            let events: Vec<ClientEvent> = (0..60)
                .map(|i| {
                    let name = if i % 3 == 0 {
                        "web:home:timeline:tweet:avatar:click"
                    } else {
                        "iphone:search:results:query:box:submit"
                    };
                    event(SHARED_USERS[i as usize % 6], name, base + i * 1000)
                })
                .collect();
            write_client_events_columnar(&wh, &dir.child("part-00000").unwrap(), &events, true, 4)
                .unwrap();
            if hour == 0 {
                let mut rows = wh.create(&dir.child("part-00000-rows").unwrap()).unwrap();
                for (i, &user) in SHARED_USERS.iter().enumerate() {
                    rows.append_record(
                        &event(user, "a:b:c:d:e:f", base + 70_000 + i as i64).to_bytes(),
                    );
                }
                rows.append_record(b"not a thrift event");
                rows.finish().unwrap();
                let mut w =
                    ColumnarFileWriter::create(&wh, &dir.child("part-00001").unwrap(), 7, 4, None)
                        .unwrap();
                for i in 0..6 {
                    let mut cells = client_event_cells(&event(0, "a:b:c:d:e:f", base + 80_000 + i));
                    if i == 2 {
                        cells[1] = b"not an event name".to_vec();
                    }
                    let refs: Vec<&[u8]> = cells.iter().map(Vec::as_slice).collect();
                    w.append_row(&refs);
                }
                w.finish().unwrap();
            }
            m.tap().hour_delivered(&shared_partition(hour), &[]);
        }
        (wh, m)
    }

    /// The reference a user-first read must equal: decode every row of
    /// every file in the hour, in scan order, then keep the user's.
    fn decode_all_then_filter(wh: &Warehouse, hour: u64, user: i64) -> Vec<ClientEvent> {
        let mut events = Vec::new();
        for path in wh
            .list_files_recursive(&shared_partition(hour).main_dir())
            .unwrap()
        {
            if sniff_columnar(wh, &path).unwrap().is_some() {
                let file = ColumnarFile::open(wh, &path).unwrap();
                let projection = vec![true; file.columns()];
                for g in 0..file.group_count() {
                    let group = file.read_group(g, &projection).unwrap();
                    events.extend(
                        (0..group.rows())
                            .filter_map(|row| client_event_from_group(&file, &group, row)),
                    );
                }
            } else {
                let records = wh.open(&path).unwrap().read_all().unwrap();
                events.extend(
                    records
                        .iter()
                        .filter_map(|r| ClientEvent::from_bytes(r).ok()),
                );
            }
        }
        events.retain(|ev| ev.user_id == user);
        events
    }

    #[test]
    fn user_first_reads_equal_decode_all_then_filter() {
        let (wh, m) = shared_day();
        let handle = m.handle();
        let hour0 = m.hour_index(0).unwrap();
        assert_eq!(hour0.files.len(), 3, "fixture keeps its row sibling");
        assert_eq!(
            hour0.records,
            hour0.events + 2,
            "fixture keeps its bad rows"
        );
        // Absent users too: one next to a present id, one next to i64::MIN.
        for user in SHARED_USERS.into_iter().chain([3, i64::MIN + 1]) {
            let mut day = Vec::new();
            for hour in 0..2 {
                let expected = decode_all_then_filter(&wh, hour, user);
                let before = wh.stats();
                let answer = handle.user_events(user, hour).unwrap();
                let spent = wh.stats().since(&before).uncompressed_bytes_read;
                let want: Vec<Tuple> = expected.iter().cloned().map(event_tuple).collect();
                assert_eq!(answer.rows, want, "user {user} hour {hour}");
                assert_eq!(answer.stats.decoded_bytes, spent, "user {user} hour {hour}");
                day.extend(expected);
            }
            let (sessions, _) = handle.sessions(user, 0).unwrap();
            assert_eq!(sessions, Sessionizer::new().sessionize(day), "user {user}");
        }
        // User 0: 10 columnar rows + 1 sibling record + 5 of the 6 rows
        // in part-00001 (the bad name is dropped, as a full decode drops it).
        assert_eq!(handle.user_events(0, 0).unwrap().rows.len(), 16);
    }

    #[test]
    fn hour_index_hands_out_one_shared_snapshot() {
        let (_, m) = shared_day();
        let a = m.hour_index(1).unwrap();
        let b = m.hour_index(1).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn reindexing_swaps_the_snapshot_and_leaves_old_readers_intact() {
        let (wh, m) = shared_day();
        let old = m.hour_index(1).unwrap();
        let frozen = HourIndex::clone(&old);
        let dir = shared_partition(1).main_dir();
        let late: Vec<ClientEvent> = (0..5)
            .map(|i| event(99, "a:b:c:d:e:f", 3_600_000 + 90_000 + i))
            .collect();
        write_client_events_columnar(&wh, &dir.child("part-00001").unwrap(), &late, true, 4)
            .unwrap();
        m.tap().hour_delivered(&shared_partition(1), &[]);
        let new = m.hour_index(1).unwrap();
        assert!(!Arc::ptr_eq(&old, &new));
        assert_eq!(*old, frozen, "an earlier snapshot never changes");
        assert!(!old.user_postings.contains_key(&99));
        assert_eq!(new.user_groups(99), 2);
        assert_eq!(new.events, old.events + 5);
        assert_eq!(m.handle().user_events(99, 1).unwrap().rows.len(), 5);
    }
}

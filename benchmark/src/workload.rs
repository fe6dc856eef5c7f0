//! Inputs: the generated day, pre-encoded for delivery, with the tallies
//! the output checks compare against, and the seeded lookup mix.

use std::collections::{BTreeMap, HashMap};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uli_thrift::record::ThriftRecord;
use uli_workload::{DayStream, GroundTruth, WorkloadConfig, Zipf};

/// Datacenters, hosts per datacenter and aggregators per datacenter: the
/// topology `uli ingest` and `uli serve` deliver through.
pub const DATACENTERS: usize = 2;
pub const HOSTS_PER_DC: usize = 4;
pub const AGGREGATORS_PER_DC: usize = 2;
/// Records per landed part file. `uli ingest` lands 10 000, but an hour
/// of the benchmark's days holds 11K to 19K events, which would land one
/// or two files an hour; 2 500 lands five to eight, so the mover's parallel
/// landing and the per-file parallel index build have work for both
/// workers.
pub const RECORDS_PER_FILE: u64 = 2_500;
/// Worker count of every parallel layer (mover, index build, stream fold,
/// materializer, engine).
pub const WORKERS: usize = 2;

/// One generated day, ready to hand to `ScribePipeline::log`.
pub struct Day {
    /// Per hour of the day: `(datacenter, payload)` in generation order.
    pub hours: Vec<Vec<(usize, Vec<u8>)>>,
    /// What the generator planted.
    pub truth: GroundTruth,
    /// Events per event name, per hour.
    pub name_hours: BTreeMap<String, Vec<u64>>,
    /// Events per logged-in user, per hour (user 0 is the logged-out
    /// visitor and is never looked up).
    pub user_hours: HashMap<i64, Vec<(u64, u64)>>,
}

impl Day {
    /// Generates and pre-encodes day 0 of `users` users from `seed`.
    pub fn generate(users: u64, seed: u64) -> Day {
        let config = WorkloadConfig {
            users,
            seed,
            ..Default::default()
        };
        let mut stream = DayStream::new(&config, 0);
        let mut hours: Vec<Vec<(usize, Vec<u8>)>> = vec![Vec::new(); 24];
        let mut name_hours: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        let mut user_hour: HashMap<(i64, u64), u64> = HashMap::new();
        for ev in stream.by_ref() {
            let hour = ev.timestamp.hour_index();
            let h = hour as usize;
            if h >= hours.len() {
                hours.resize_with(h + 1, Vec::new);
            }
            let counts = name_hours
                .entry(ev.name.as_str().to_string())
                .or_insert_with(|| vec![0; 24]);
            if h >= counts.len() {
                counts.resize(h + 1, 0);
            }
            counts[h] += 1;
            if ev.user_id != 0 {
                *user_hour.entry((ev.user_id, hour)).or_insert(0) += 1;
            }
            let dc = ev.user_id.unsigned_abs() as usize % DATACENTERS;
            hours[h].push((dc, ev.to_bytes()));
        }
        let mut user_hours: HashMap<i64, Vec<(u64, u64)>> = HashMap::new();
        for ((user, hour), n) in user_hour {
            user_hours.entry(user).or_default().push((hour, n));
        }
        for v in user_hours.values_mut() {
            v.sort_unstable();
        }
        Day {
            hours,
            truth: stream.into_truth(),
            name_hours,
            user_hours,
        }
    }

    /// Events generated.
    pub fn events(&self) -> u64 {
        self.truth.events
    }

    /// Events of `user` in `hour`, from generation.
    pub fn user_hour_events(&self, user: i64, hour: u64) -> u64 {
        self.user_hours
            .get(&user)
            .and_then(|v| v.iter().find(|(h, _)| *h == hour))
            .map_or(0, |(_, n)| *n)
    }

    /// Events named `name` over `hours`, from generation.
    pub fn name_events(&self, name: &str, hours: &[u64]) -> u64 {
        self.name_hours.get(name).map_or(0, |counts| {
            hours
                .iter()
                .map(|&h| counts.get(h as usize).copied().unwrap_or(0))
                .sum()
        })
    }

    /// The `k` names with the most events in `hour`, from generation, as
    /// (name, events): count descending, then name ascending, as the
    /// serving layer breaks ties.
    pub fn top_names(&self, hour: u64, k: usize) -> Vec<(String, u64)> {
        let mut top: Vec<(String, u64)> = self
            .name_hours
            .iter()
            .map(|(name, counts)| {
                (
                    name.clone(),
                    counts.get(hour as usize).copied().unwrap_or(0),
                )
            })
            .filter(|(_, n)| *n > 0)
            .collect();
        top.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        top.truncate(k);
        top
    }

    /// Events per name over the whole day.
    pub fn name_totals(&self) -> BTreeMap<String, u64> {
        self.name_hours
            .iter()
            .map(|(name, counts)| (name.clone(), counts.iter().sum()))
            .collect()
    }
}

/// One point lookup against the serving layer.
#[derive(Debug, Clone)]
pub enum Lookup {
    /// `user_events(user, hour)`.
    UserEvents { user: i64, hour: u64 },
    /// `sessions(user, 0)`.
    Sessions { user: i64 },
    /// `count(name, hours)` over the last six indexed hours.
    Count { name: String, hours: Vec<u64> },
    /// `top_names(hour, 10)`.
    TopNames { hour: u64 },
}

/// Lookup classes, in the order metrics report them.
pub const CLASSES: [&str; 4] = ["user_events", "sessions", "count", "top_names"];

impl Lookup {
    /// Index of the class in [`CLASSES`].
    pub fn class(&self) -> usize {
        match self {
            Lookup::UserEvents { .. } => 0,
            Lookup::Sessions { .. } => 1,
            Lookup::Count { .. } => 2,
            Lookup::TopNames { .. } => 3,
        }
    }
}

/// Lookups between re-draws of the users' popularity order.
pub const RESHUFFLE_EVERY: usize = 10;

/// Users a `user_events` lookup draws, at most, to find one active in an
/// indexed hour.
pub const USER_EVENTS_DRAWS: usize = 32;

/// The closed-loop client's lookup generator: users Zipf(1.1) over a
/// seeded shuffle of active users, names Zipf(1.1) over names ranked by
/// the day's frequency, and the 40/30/20/10 class mix.
///
/// The shuffle is re-drawn every [`RESHUFFLE_EVERY`] lookups. With one
/// fixed shuffle a seventh of all lookups hit one user, so a run's
/// latencies would mostly measure which user the seed made hottest; a
/// popularity that drifts averages over many hot users.
pub struct LookupMix {
    rng: StdRng,
    issued: usize,
    users: Vec<i64>,
    user_zipf: Zipf,
    names: Vec<String>,
    name_zipf: Zipf,
}

impl LookupMix {
    /// A mix over `day`'s active users and names, seeded by `seed`.
    pub fn new(day: &Day, seed: u64) -> LookupMix {
        let mut users: Vec<i64> = day.user_hours.keys().copied().collect();
        users.sort_unstable();
        let mut names: Vec<(u64, String)> = day
            .name_totals()
            .into_iter()
            .map(|(name, n)| (n, name))
            .collect();
        names.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        let names: Vec<String> = names.into_iter().map(|(_, name)| name).collect();
        LookupMix {
            user_zipf: Zipf::new(users.len().max(1), 1.1),
            name_zipf: Zipf::new(names.len().max(1), 1.1),
            rng: StdRng::seed_from_u64(seed ^ 0x6c6f_6f6b_7570),
            issued: 0,
            users,
            names,
        }
    }

    fn shuffle_users(&mut self) {
        for i in (1..self.users.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            self.users.swap(i, j);
        }
    }

    /// The next lookup against the hours indexed so far (ascending, not
    /// empty).
    ///
    /// `user_events` asks for an hour the user was active in, re-drawing
    /// the user up to [`USER_EVENTS_DRAWS`] times until one was active in
    /// an indexed hour, so that it exercises the decode path. Early in the
    /// day a third of the users drawn have no indexed hour yet; left as
    /// misses, their near-free lookups put the class median on the edge
    /// between misses and decodes, where it jumped by a third from one
    /// seed to the next.
    pub fn next(&mut self, day: &Day, indexed: &[u64]) -> Lookup {
        if self.issued.is_multiple_of(RESHUFFLE_EVERY) {
            self.shuffle_users();
        }
        self.issued += 1;
        let roll = self.rng.gen_range(0..10u32);
        let mut user = self.users[self.user_zipf.sample(&mut self.rng)];
        match roll {
            0..=3 => {
                let mut active = Vec::new();
                for draw in 0..USER_EVENTS_DRAWS {
                    if draw > 0 {
                        user = self.users[self.user_zipf.sample(&mut self.rng)];
                    }
                    active = day.user_hours[&user]
                        .iter()
                        .map(|(h, _)| *h)
                        .filter(|h| indexed.binary_search(h).is_ok())
                        .collect();
                    if !active.is_empty() {
                        break;
                    }
                }
                let hour = if active.is_empty() {
                    indexed[self.rng.gen_range(0..indexed.len())]
                } else {
                    active[self.rng.gen_range(0..active.len())]
                };
                Lookup::UserEvents { user, hour }
            }
            4..=6 => Lookup::Sessions { user },
            7..=8 => {
                let name = self.names[self.name_zipf.sample(&mut self.rng)].clone();
                let hours = indexed[indexed.len().saturating_sub(6)..].to_vec();
                Lookup::Count { name, hours }
            }
            _ => Lookup::TopNames {
                hour: indexed[self.rng.gen_range(0..indexed.len())],
            },
        }
    }
}

//! The four traffic mixes: their fixed set-up, their query sequences and
//! their reference answers.

use crate::oracle::{answer_ads, Reference, Rollup};
use presto_cache::MetadataCache;
use presto_cluster::{Cluster, ClusterConfig};
use presto_common::{DataType, Schema, Session, Value};
use presto_connector::{CatalogManager, Connector, ConnectorMetadata};
use presto_connectors::{HiveConnector, ShardedSqlConnector};
use presto_workload::usecases::{UseCase, WorkloadGenerator};
use presto_workload::TpchGenerator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Cluster shape shared by every workload: 2 workers × 1 executor
/// thread, 2 leaf drivers per task, no simulated network or storage
/// latency, so the numbers measure program time rather than sleeps.
/// Two executor threads in all match a 2-core host: with 2 × 2 the
/// operating system's scheduler decided which of four runnable threads
/// ran, and `mixed` spread up to 3 times wider from run to run.
pub const WORKERS: usize = 2;
pub const THREADS_PER_WORKER: usize = 1;
pub const LEAF_PARALLELISM: usize = 2;

/// Queries each stream runs during set-up to warm caches and code paths.
/// The warm-up sequence comes from a fixed seed so set-up time does not
/// depend on `--seed`.
const WARMUP_QUERIES: usize = 4;
const WARMUP_SEED: u64 = 0x5eed;

/// One client thread: a Table I generator issuing queries in a closed loop.
#[derive(Debug, Clone, Copy)]
pub struct Stream {
    pub use_case: UseCase,
    /// The stream `latency_p50_ms` and the tail are taken from; the other
    /// streams of the workload give `bg_latency_p50_ms`.
    pub foreground: bool,
}

/// A workload's fixed definition.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub streams: Vec<Stream>,
    /// Scale of the `ads` table on `sharded` (0 = not loaded).
    pub ads_scale: f64,
    /// TPC-H scale of `customer`/`orders`/`lineitem` on `hive` (0 = not
    /// loaded).
    pub tpch_scale: f64,
    /// Per-node general and reserved pool bytes.
    pub general_pool_bytes: u64,
    pub reserved_pool_bytes: u64,
    /// Spill to disk under memory pressure (Batch ETL only).
    pub spill: bool,
    /// The tail percentile reported as `latency_tail_ms`, over the whole
    /// window: the highest of p99/p95/p90 that leaves at least 10
    /// foreground samples beyond it in a 25-second run on a 2-core host
    /// and whose run-to-run spread stays well inside its bound there
    /// (`dashboard`'s p99 moved with the host, so it reports p95).
    pub tail: f64,
    /// Length of each stream's pre-generated query sequence; a client
    /// that reaches the end starts over.
    pub sequence_len: usize,
}

pub const NAMES: [&str; 4] = ["dashboard", "warehouse", "etl_spill", "mixed"];

pub fn spec(name: &str) -> Option<Spec> {
    let default_pools = ClusterConfig::default();
    let short = Stream {
        use_case: UseCase::DeveloperAdvertiser,
        foreground: true,
    };
    let base = Spec {
        name: "",
        streams: Vec::new(),
        ads_scale: 0.0,
        tpch_scale: 0.0,
        general_pool_bytes: default_pools.node_memory_bytes,
        reserved_pool_bytes: default_pools.reserved_pool_bytes,
        spill: false,
        tail: 0.95,
        sequence_len: 4096,
    };
    Some(match name {
        "dashboard" => Spec {
            name: "dashboard",
            streams: vec![short],
            ads_scale: 0.01,
            ..base
        },
        "warehouse" => Spec {
            name: "warehouse",
            streams: vec![Stream {
                use_case: UseCase::Interactive,
                foreground: true,
            }],
            tpch_scale: 0.05,
            sequence_len: 512,
            ..base
        },
        "etl_spill" => Spec {
            name: "etl_spill",
            streams: vec![Stream {
                use_case: UseCase::BatchEtl,
                foreground: true,
            }],
            tpch_scale: 0.02,
            general_pool_bytes: 256 << 10,
            reserved_pool_bytes: 256 << 10,
            spill: true,
            tail: 0.90,
            sequence_len: 256,
            ..base
        },
        "mixed" => Spec {
            name: "mixed",
            streams: vec![
                short,
                Stream {
                    use_case: UseCase::Interactive,
                    foreground: false,
                },
            ],
            ads_scale: 0.02,
            tpch_scale: 0.02,
            sequence_len: 1024,
            ..base
        },
        _ => return None,
    })
}

impl Spec {
    pub fn cluster_config(&self) -> ClusterConfig {
        ClusterConfig {
            workers: WORKERS,
            threads_per_worker: THREADS_PER_WORKER,
            leaf_parallelism: LEAF_PARALLELISM,
            node_memory_bytes: self.general_pool_bytes,
            reserved_pool_bytes: self.reserved_pool_bytes,
            ..ClusterConfig::default()
        }
    }
}

/// The Batch ETL shapes write into one target table each.
pub struct EtlTarget {
    pub table: &'static str,
    /// Recognises the generator's SELECT for this target.
    pub select_marker: &'static str,
    pub schema: fn() -> Schema,
    /// A double column summed as the read-back checksum.
    pub checksum_column: &'static str,
}

pub const ETL_TARGETS: [EtlTarget; 2] = [
    EtlTarget {
        table: "etl_supplier_flag",
        select_marker: "SELECT l.suppkey, l.returnflag",
        schema: || {
            Schema::of(&[
                ("suppkey", DataType::Bigint),
                ("returnflag", DataType::Varchar),
                ("revenue", DataType::Double),
                ("quantity", DataType::Double),
                ("line_count", DataType::Bigint),
            ])
        },
        checksum_column: "revenue",
    },
    EtlTarget {
        table: "etl_customer_orders",
        select_marker: "SELECT o.custkey",
        schema: || {
            Schema::of(&[
                ("custkey", DataType::Bigint),
                ("line_count", DataType::Bigint),
                ("totalprice", DataType::Double),
                ("first_order", DataType::Date),
                ("last_order", DataType::Date),
            ])
        },
        checksum_column: "totalprice",
    },
];

fn etl_target(select: &str) -> usize {
    ETL_TARGETS
        .iter()
        .position(|t| select.starts_with(t.select_marker))
        .unwrap_or(0)
}

/// One query text as a client issues it.
#[derive(Debug, Clone)]
pub struct Query {
    pub sql: String,
    /// The SELECT: `sql` itself, or the source of an ETL INSERT.
    pub select: String,
    /// For ETL statements, the index into [`ETL_TARGETS`].
    pub etl_target: Option<usize>,
}

fn next_query(generator: &mut WorkloadGenerator) -> Query {
    let select = generator.next_query();
    if generator.use_case == UseCase::BatchEtl {
        let target = etl_target(&select);
        Query {
            sql: format!("INSERT INTO {} {select}", ETL_TARGETS[target].table),
            select,
            etl_target: Some(target),
        }
    } else {
        Query {
            sql: select.clone(),
            select,
            etl_target: None,
        }
    }
}

/// Query shapes each generator samples from, uniformly.
fn shape_count(use_case: UseCase) -> usize {
    match use_case {
        UseCase::DeveloperAdvertiser => 3,
        UseCase::Interactive => 4,
        UseCase::AbTesting | UseCase::BatchEtl => 2,
    }
}

/// A query's shape: its text with the generated numbers taken out.
fn shape_of(sql: &str) -> String {
    sql.chars().filter(|c| !c.is_ascii_digit()).collect()
}

/// Every stream's whole query sequence for one seed, generated before
/// timing starts.
///
/// The sequence is stratified by shape: each block of `k` consecutive
/// queries holds one query of each of the generator's `k` shapes, in a
/// seeded random order, with the generator's own parameters. The shape
/// mix is then the generator's expected mix in every run, whatever the
/// seed; a mix that drifted with the seed would move the latency
/// percentiles between shapes more than any engine change does.
pub fn sequences(spec: &Spec, seed: u64) -> Vec<Vec<Query>> {
    spec.streams
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let stream_seed = seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(i as u64);
            let mut g = WorkloadGenerator::new(s.use_case, stream_seed);
            let mut order = StdRng::seed_from_u64(stream_seed ^ 0x0b10_c5ee_d000);
            let k = shape_count(s.use_case);
            let mut pools: BTreeMap<String, VecDeque<Query>> = BTreeMap::new();
            let mut sequence = Vec::with_capacity(spec.sequence_len);
            while sequence.len() < spec.sequence_len {
                while pools.len() < k || pools.values().any(VecDeque::is_empty) {
                    assert!(
                        pools.values().map(VecDeque::len).sum::<usize>() < 1000 * k,
                        "{} generator no longer has {k} shapes",
                        s.use_case.label()
                    );
                    let q = next_query(&mut g);
                    pools.entry(shape_of(&q.sql)).or_default().push_back(q);
                }
                let mut block: Vec<Query> =
                    pools.values_mut().filter_map(VecDeque::pop_front).collect();
                for j in (1..block.len()).rev() {
                    block.swap(j, order.gen_range(0..j + 1));
                }
                sequence.extend(block);
            }
            sequence.truncate(spec.sequence_len);
            sequence
        })
        .collect()
}

/// The session each stream's queries run under: the use case's own
/// (Batch ETL brings phased scheduling), plus spill for `etl_spill`.
fn session(spec: &Spec, use_case: UseCase, dir: &Path) -> Session {
    let mut s = use_case.session();
    if use_case == UseCase::BatchEtl {
        s.spill_enabled = spec.spill;
        s.spill_dir = Some(dir.join("spill"));
    }
    s
}

/// The reference engine configuration: the same cluster and data, with
/// the three optimisations whose job is speed, not answers, turned off.
pub fn reference_session(session: &Session) -> Session {
    Session {
        pipeline_fusion: false,
        dynamic_filtering: false,
        compiled_expressions: false,
        ..session.clone()
    }
}

/// What one query text must return.
#[derive(Debug, Clone)]
pub enum Expect {
    Rows(Reference),
    /// An INSERT must report exactly as many rows written as its SELECT
    /// returns on the reference engine; `checksum` is the SELECT's sum of
    /// the target's checksum column.
    Inserted {
        target: usize,
        rows: u64,
        checksum: f64,
    },
}

impl Expect {
    /// Check a result; `Ok` carries the rows it counts toward `rows_per_s`.
    pub fn check(&self, rows: &[Vec<Value>]) -> Result<u64, String> {
        match self {
            Expect::Rows(r) => r.check(rows).map(|()| rows.len() as u64),
            Expect::Inserted { rows: want, .. } => match inserted_rows(rows) {
                n if n == *want => Ok(n),
                n => Err(format!("INSERT reported {n} rows, expected {want}")),
            },
        }
    }

    pub fn corrupt(&mut self) {
        match self {
            Expect::Rows(r) => r.corrupt(),
            Expect::Inserted { rows, .. } => *rows += 1,
        }
    }
}

/// The row count an INSERT reports (0 if it reports none).
pub fn inserted_rows(rows: &[Vec<Value>]) -> u64 {
    match rows.first().and_then(|r| r.first()) {
        Some(Value::Bigint(n)) => *n as u64,
        _ => 0,
    }
}

/// A loaded, started and warmed cluster.
pub struct Fixture {
    pub cluster: Cluster,
    pub hive: Option<Arc<HiveConnector>>,
    pub ads: Vec<Vec<Value>>,
    pub dir: PathBuf,
    pub sessions: Vec<Session>,
    /// Rows every INSERT issued so far reported written, per ETL target,
    /// and the number of such statements.
    pub etl_written: Vec<(u64, u64)>,
}

impl Fixture {
    /// Set-up as `setup_s` measures it: generate and load the data, start
    /// the cluster, and run the fixed warm-up queries.
    pub fn build(spec: &Spec, dir: PathBuf) -> Result<Fixture, String> {
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let config = spec.cluster_config();
        let cache = MetadataCache::new(config.cache.clone());
        let mut catalogs = CatalogManager::new();
        let mut ads = Vec::new();
        if spec.ads_scale > 0.0 {
            let sharded = ShardedSqlConnector::with_cache(8, Arc::clone(&cache));
            ads = ads_rows(spec.ads_scale);
            sharded.load_table("ads", ads_schema(), 1, &ads);
            catalogs.register("sharded", sharded as Arc<dyn Connector>);
        }
        let mut hive = None;
        if spec.tpch_scale > 0.0 {
            let h = HiveConnector::with_cache(dir.join("hive"), Arc::clone(&cache))
                .map_err(|e| e.to_string())?;
            let g = TpchGenerator::new(spec.tpch_scale);
            for (name, schema, pages) in [
                ("customer", g.customer_schema(), g.customer()),
                ("orders", g.orders_schema(), g.orders()),
                ("lineitem", g.lineitem_schema(), g.lineitem()),
            ] {
                h.load_table(name, schema, &pages)
                    .map_err(|e| e.to_string())?;
            }
            if spec.streams.iter().any(|s| s.use_case == UseCase::BatchEtl) {
                for t in &ETL_TARGETS {
                    h.create_table(t.table, &(t.schema)())
                        .map_err(|e| e.to_string())?;
                }
            }
            catalogs.register("hive", Arc::clone(&h) as Arc<dyn Connector>);
            hive = Some(h);
        }
        let cluster =
            Cluster::start_with_cache(config, catalogs, cache).map_err(|e| e.to_string())?;
        let sessions = spec
            .streams
            .iter()
            .map(|s| session(spec, s.use_case, &dir))
            .collect();
        let mut fixture = Fixture {
            cluster,
            hive,
            ads,
            dir,
            sessions,
            etl_written: vec![(0, 0); ETL_TARGETS.len()],
        };
        for (i, s) in spec.streams.iter().enumerate() {
            let mut g = WorkloadGenerator::new(s.use_case, WARMUP_SEED + i as u64);
            for _ in 0..WARMUP_QUERIES {
                let q = next_query(&mut g);
                let out = fixture
                    .cluster
                    .execute_with_session(&q.sql, &fixture.sessions[i])
                    .map_err(|e| format!("warm-up `{}`: {e}", q.sql))?;
                if let Some(t) = q.etl_target {
                    fixture.etl_written[t].0 += inserted_rows(&out.rows());
                    fixture.etl_written[t].1 += 1;
                }
            }
        }
        Ok(fixture)
    }

    /// Account a window's INSERTs (rows reported, statements) per target.
    pub fn add_inserted(&mut self, inserted: &[(u64, u64)]) {
        for (total, (rows, statements)) in self.etl_written.iter_mut().zip(inserted) {
            total.0 += rows;
            total.1 += statements;
        }
    }

    /// Reference answers for every distinct text in `sequences`.
    pub fn references(&self, sequences: &[Vec<Query>]) -> Result<HashMap<String, Expect>, String> {
        let mut refs = HashMap::new();
        let mut rollups: HashMap<Rollup, Vec<Vec<Value>>> = HashMap::new();
        for (stream, seq) in sequences.iter().enumerate() {
            let session = reference_session(&self.sessions[stream]);
            let reference = |sql: &str| {
                self.cluster
                    .execute_with_session(sql, &session)
                    .map(|out| out.rows())
                    .map_err(|e| format!("reference `{sql}`: {e}"))
            };
            for q in seq {
                if refs.contains_key(&q.sql) {
                    continue;
                }
                let expect = if let Some(target) = q.etl_target {
                    let rows = reference(&q.select)?;
                    let schema = (ETL_TARGETS[target].schema)();
                    let col = schema
                        .fields()
                        .iter()
                        .position(|f| f.name == ETL_TARGETS[target].checksum_column)
                        .unwrap_or(0);
                    let checksum = rows.iter().map(|r| r[col].as_f64().unwrap_or(0.0)).sum();
                    Expect::Inserted {
                        target,
                        rows: rows.len() as u64,
                        checksum,
                    }
                } else if let Some(r) = answer_ads(&self.ads, &q.sql) {
                    Expect::Rows(r)
                } else if let Some((rollup, threshold)) = Rollup::of(&q.sql) {
                    let base = match rollups.entry(rollup) {
                        Entry::Occupied(e) => e.into_mut(),
                        Entry::Vacant(e) => e.insert(reference(rollup.base_query())?),
                    };
                    Expect::Rows(rollup.answer(base, threshold))
                } else {
                    Expect::Rows(Reference::new(reference(&q.sql)?, &q.sql))
                };
                refs.insert(q.sql.clone(), expect);
            }
        }
        Ok(refs)
    }

    /// After the run: each ETL target must hold exactly the rows its
    /// INSERTs reported, and its checksum column must sum to the
    /// reference SELECT's checksum times the statements issued.
    pub fn check_etl_tables(&self, refs: &HashMap<String, Expect>) -> Result<(), String> {
        if self
            .etl_written
            .iter()
            .all(|&(_, statements)| statements == 0)
        {
            return Ok(());
        }
        // Batch ETL runs as the workload's only stream.
        let session = reference_session(&self.sessions[0]);
        let mut per_statement = vec![0.0; ETL_TARGETS.len()];
        for e in refs.values() {
            if let Expect::Inserted {
                target, checksum, ..
            } = e
            {
                per_statement[*target] = *checksum;
            }
        }
        for (i, t) in ETL_TARGETS.iter().enumerate() {
            let (written, statements) = self.etl_written[i];
            let sql = format!(
                "SELECT COUNT(*), SUM({}) FROM {}",
                t.checksum_column, t.table
            );
            let out = self
                .cluster
                .execute_with_session(&sql, &session)
                .map_err(|e| format!("read-back `{sql}`: {e}"))?;
            let rows = out.rows();
            let count = rows.first().and_then(|r| r.first()).and_then(Value::as_i64);
            if count != Some(written as i64) {
                return Err(format!(
                    "{} holds {count:?} rows, INSERTs reported {written}",
                    t.table
                ));
            }
            if written > 0 {
                let sum = rows.first().and_then(|r| r.get(1)).and_then(Value::as_f64);
                let want = per_statement[i] * statements as f64;
                let ok = sum
                    .is_some_and(|s| (s - want).abs() <= 1e-9 * 1f64.max(s.abs()).max(want.abs()));
                if !ok {
                    return Err(format!(
                        "{}: SUM({}) is {sum:?}, expected {want}",
                        t.table, t.checksum_column
                    ));
                }
            }
        }
        Ok(())
    }

    /// Bytes on disk of the ETL target tables.
    pub fn etl_bytes_on_disk(&self) -> u64 {
        ETL_TARGETS
            .iter()
            .map(|t| dir_bytes(&self.dir.join("hive").join(t.table)))
            .sum()
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        self.cluster.shutdown();
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |rd| {
        rd.flatten()
            .map(|e| {
                let p = e.path();
                if p.is_dir() {
                    dir_bytes(&p)
                } else {
                    e.metadata().map_or(0, |m| m.len())
                }
            })
            .sum()
    })
}

fn ads_schema() -> Schema {
    Schema::of(&[
        ("ad_id", DataType::Bigint),
        ("advertiser_id", DataType::Bigint),
        ("clicks", DataType::Bigint),
        ("spend", DataType::Double),
        ("day", DataType::Bigint),
    ])
}

/// The Dev/Advertiser `ads` table, generated exactly as the repo's
/// benchmark fixture (`presto_bench::load_ads_table`) generates it.
fn ads_rows(scale: f64) -> Vec<Vec<Value>> {
    let n = ((500_000.0 * scale) as i64).max(2_000);
    let mut rng = StdRng::seed_from_u64(99);
    (0..n)
        .map(|i| {
            vec![
                Value::Bigint(i % (n / 10).max(1)),
                Value::Bigint(rng.gen_range(0..50)),
                Value::Bigint(rng.gen_range(0..10)),
                Value::Double(rng.gen_range(0.0..5.0)),
                Value::Bigint(rng.gen_range(0..30)),
            ]
        })
        .collect()
}

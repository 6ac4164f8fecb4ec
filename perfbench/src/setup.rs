//! Workload definitions and the deployed server shape: database preset,
//! engine build, a one-shard partitioned router with default serving and
//! refresh settings, the disk tier, and the network front-end.

use std::path::Path;
use std::sync::Arc;

use sizel_cluster::{ClusterConfig, ClusterRouter};
use sizel_core::algo::AlgoKind;
use sizel_core::durability::DiskTierConfig;
use sizel_core::engine::{EngineConfig, SizeLEngine};
use sizel_core::osgen::OsSource;
use sizel_datagen::{dblp, tpch};
use sizel_graph::presets;
use sizel_net::{NetConfig, NetServer};
use sizel_rank::{dblp_ga, tpch_ga, GaPreset};
use sizel_storage::Database;

/// The four workloads (see README.md for why each exists).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    DblpWarm,
    TpchCold,
    DblpPaged,
    DblpWrite,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "dblp_warm" => Some(Workload::DblpWarm),
            "tpch_cold" => Some(Workload::TpchCold),
            "dblp_paged" => Some(Workload::DblpPaged),
            "dblp_write" => Some(Workload::DblpWrite),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::DblpWarm => "dblp_warm",
            Workload::TpchCold => "tpch_cold",
            Workload::DblpPaged => "dblp_paged",
            Workload::DblpWrite => "dblp_write",
        }
    }

    pub fn is_tpch(self) -> bool {
        self == Workload::TpchCold
    }

    /// Tuple source of every read.
    pub fn source(self) -> OsSource {
        if self == Workload::DblpPaged {
            OsSource::Database
        } else {
            OsSource::DataGraph
        }
    }

    /// Requests kept in flight on the one connection.
    pub fn depth(self) -> usize {
        match self {
            Workload::DblpWarm | Workload::DblpWrite => 1,
            Workload::TpchCold | Workload::DblpPaged => 4,
        }
    }

    /// Hot-set size: far below the 4,096-entry summary cache; on
    /// `dblp_write` small enough that the refresh worker's re-warm after
    /// a batch fits between batches.
    pub fn hot_keys(self) -> usize {
        if self == Workload::DblpWrite {
            16
        } else {
            64
        }
    }

    /// Batches of the write tail that closes a read workload: enough
    /// 20-batch chunks for a steady apply p90 (TPC-H applies are cheap,
    /// so it gets more).
    pub fn tail_batches(self) -> usize {
        if self.is_tpch() {
            200
        } else {
            100
        }
    }

    /// Whether reads draw fresh `(DS, l, algorithm)` keys.
    pub fn cold(self) -> bool {
        matches!(self, Workload::TpchCold | Workload::DblpPaged)
    }

    /// The server's disk tier: every server logs its writes (WAL,
    /// fsync on every append); `dblp_paged` also pages the junction
    /// and FK postings that Author and Paper OSs probe, behind the
    /// default block cache.
    pub fn disk_config(self) -> DiskTierConfig {
        let mut cfg = DiskTierConfig::new("unused");
        cfg.fsync_every = 1;
        if self == Workload::DblpPaged {
            cfg.paged_tables = PAGED_TABLES.iter().map(|s| s.to_string()).collect();
        }
        cfg
    }

    /// Engine builds timed per run; `setup_s` is their median.
    pub fn setup_builds(self) -> usize {
        if self == Workload::DblpPaged {
            3
        } else {
            9
        }
    }
}

/// DBLP tables whose sorted postings `dblp_paged` pages to segments.
pub const PAGED_TABLES: [&str; 3] = ["AuthorPaper", "Citation", "Paper"];

/// The algorithms the cold streams draw from (the paper's three).
pub const COLD_ALGOS: [AlgoKind; 3] = [AlgoKind::Optimal, AlgoKind::BottomUp, AlgoKind::TopPath];

/// Generates the workload's database at the calibrated `bench()` scale.
/// The data does not depend on the run's seed; the request streams do.
pub fn generate(w: Workload) -> Database {
    if w.is_tpch() {
        tpch::generate(&tpch::TpchConfig::bench()).db
    } else {
        dblp::generate(&dblp::DblpConfig::bench()).db
    }
}

/// The DS relations of the workload's database.
pub fn ds_relations(w: Workload) -> Vec<(String, sizel_graph::GdsConfig)> {
    if w.is_tpch() {
        vec![
            ("Customer".into(), presets::tpch_customer_gds_config()),
            ("Supplier".into(), presets::tpch_supplier_gds_config()),
        ]
    } else {
        vec![
            ("Author".into(), presets::dblp_author_gds_config()),
            ("Paper".into(), presets::dblp_paper_gds_config()),
        ]
    }
}

/// Builds the engine exactly as a server would.
pub fn build_engine(w: Workload, db: Database) -> SizeLEngine {
    let cfg = EngineConfig::new(ds_relations(w));
    SizeLEngine::build(db, move |db, sg, dg| authority(w, db, sg, dg), cfg)
        .expect("the generated database builds an engine")
}

/// The workload's authority graph (GA1 of its database).
pub fn authority(
    w: Workload,
    db: &Database,
    sg: &sizel_graph::SchemaGraph,
    dg: &sizel_graph::DataGraph,
) -> sizel_rank::AuthorityGraph {
    if w.is_tpch() {
        tpch_ga(GaPreset::Ga1, db, sg, dg)
    } else {
        dblp_ga(GaPreset::Ga1, db, sg, dg)
    }
}

/// A one-shard partitioned router with default serve and refresh
/// settings, its disk tier attached under `dir`.
pub fn router(w: Workload, engine: SizeLEngine, dir: &Path) -> Arc<ClusterRouter> {
    let router = ClusterRouter::partitioned(vec![engine], ClusterConfig::default())
        .expect("one shard always assembles");
    router.attach_disk_tier(dir, &w.disk_config()).expect("disk tier attaches");
    Arc::new(router)
}

/// The whole deployed stack from an in-memory database to a listening
/// server on an ephemeral loopback port.
pub fn serve(w: Workload, db: Database, dir: &Path) -> NetServer {
    let router = router(w, build_engine(w, db), dir);
    NetServer::bind(router, "127.0.0.1:0", NetConfig::default()).expect("bind loopback")
}

//! The three serving workloads: seeded clause base, request stream,
//! update stream, and the server configuration each one is served with.

use blog_logic::{clause_to_source, parse_program, ClauseDb, Program};
use blog_parallel::FrontierPolicy;
use blog_serve::tuning::{churn_store_config, working_set_store_config};
use blog_serve::{CacheConfig, CacheMode, CommitMode, ExecMode, IndexPolicy, QueryRequest};
use blog_serve::{Routing, ServeConfig};
use blog_spd::PagedStoreConfig;
use blog_workloads::{
    churn_updates, mapcolor_program, queens_program, tenant_mix_program, tenant_mix_requests,
    ChurnOp, ChurnSpec, FamilyParams, MapColorParams, QueensParams, TenantMix,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Commits of the traced run's commit probe on the read-only workloads.
pub const COMMIT_PROBE_UPDATES: usize = 200;

/// Most probe facts one server asserts (each keeps its slot: ids are
/// never reused), and the geometry headroom reserved for them.
pub const PROBE_ASSERTS_MAX: usize = 1024;

/// Requests per round of `search_or`: its 11 texts once, and the full
/// 6-queens query — five times the cost of any other — once more. At
/// 2 in 12 the costly class holds the 90th percentile; at 1 in 11 the
/// percentile would sit on the boundary between two cost classes and
/// jump between them from run to run.
const SEARCH_ROUND: usize = 12;

/// One query per this many is followed by one update on `churn_large`.
pub const QUERIES_PER_UPDATE: usize = 20;

/// Updates in the `churn_large` stream: enough for 160k queries, more
/// than a 20-second run serves on a 2-core host. A run that outgrows it
/// stops updating and says so (`updates_exhausted`).
const CHURN_UPDATES: usize = 8_000;

/// The workloads, by command-line name.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    HotSmall,
    ChurnLarge,
    SearchOr,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::HotSmall, Workload::ChurnLarge, Workload::SearchOr];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotSmall => "hot_small",
            Workload::ChurnLarge => "churn_large",
            Workload::SearchOr => "search_or",
        }
    }

    /// Fixed open-loop offered rate, req/s: a sixth to a quarter of the
    /// saturation throughput the unmodified server reached on a 2-core
    /// virtual machine (half built backlogs whenever a neighbour on the
    /// host took CPU time). Never re-derived per run, so a faster server
    /// shows lower latency at the same load instead of a different load.
    pub fn offered_rps(self) -> f64 {
        match self {
            Workload::HotSmall => 5_000.0,
            Workload::ChurnLarge => 1_200.0,
            Workload::SearchOr => 20.0,
        }
    }

    /// Requests submitted at once per saturation batch (sized so one
    /// batch drains in roughly half a second).
    pub fn saturation_batch(self) -> usize {
        match self {
            Workload::HotSmall => 5_000,
            Workload::ChurnLarge => 2_000,
            Workload::SearchOr => 6 * SEARCH_ROUND,
        }
    }

    /// Requests per round of the stream: saturation batches start on a
    /// round boundary.
    pub fn round(self) -> usize {
        match self {
            Workload::SearchOr => SEARCH_ROUND,
            _ => 1,
        }
    }

    /// Open-loop chunk length, seconds. Responses are checked and
    /// dropped between chunks, so memory stays flat.
    pub fn chunk_s(self) -> f64 {
        match self {
            Workload::HotSmall | Workload::ChurnLarge => 0.5,
            Workload::SearchOr => 2.0,
        }
    }

    /// Requests in the generated stream; runs cycle through it.
    fn stream_len(self) -> usize {
        match self {
            Workload::HotSmall => 40_000,
            Workload::ChurnLarge => 40_000,
            Workload::SearchOr => 200 * SEARCH_ROUND,
        }
    }

    /// Whether the workload carries a concurrent update stream.
    pub fn churns(self) -> bool {
        self == Workload::ChurnLarge
    }
}

/// One request of the stream.
#[derive(Clone, Debug)]
pub struct Req {
    /// Session id (routing key).
    pub session: u64,
    /// Oracle group: the disjoint slice of the clause base the query
    /// can resolve against (a tenant, or 0 when the base is one group).
    pub group: u32,
    pub text: String,
}

impl Req {
    pub fn request(&self) -> QueryRequest {
        QueryRequest::new(self.session, self.text.clone()).with_tenant(self.group)
    }
}

/// One update transaction of the stream.
#[derive(Clone, Debug)]
pub struct Update {
    pub group: u32,
    pub ops: Vec<ChurnOp>,
}

/// Everything a workload run is made of, generated from one seed.
pub struct Generated {
    pub workload: Workload,
    pub program: Program,
    /// Source text of every seed clause, by clause id.
    pub clause_texts: Vec<String>,
    /// Oracle group of every seed clause, by clause id.
    pub clause_groups: Vec<u32>,
    pub requests: Vec<Req>,
    pub updates: Vec<Update>,
    pub store_config: PagedStoreConfig,
    pub serve_config: ServeConfig,
}

impl Generated {
    pub fn live_clauses(&self) -> usize {
        self.program.db.len()
    }

    pub fn geometry_slots(&self) -> u64 {
        u64::from(self.store_config.geometry.capacity())
    }

    /// Each distinct request once, in first-arrival order (the warm-up
    /// set).
    pub fn distinct(&self) -> Vec<Req> {
        let mut seen = std::collections::HashSet::new();
        self.requests
            .iter()
            .filter(|r| seen.insert((r.session, r.text.clone())))
            .cloned()
            .collect()
    }
}

/// The deployed multi-tenant server: two session-affine sequential
/// pools, precise answer cache without a byte budget, MVCC commits,
/// first-argument index, no faults, no tracing, no simulated stalls.
fn tenant_serve_config() -> ServeConfig {
    ServeConfig {
        n_pools: 2,
        routing: Routing::SessionAffinity,
        exec: ExecMode::Sequential,
        stall_ns_per_tick: 0,
        commit: CommitMode::Mvcc,
        index: IndexPolicy::FirstArg,
        cache: CacheConfig {
            mode: CacheMode::Precise,
            budget_bytes: None,
            ..CacheConfig::default()
        },
        fault: None,
        trace: blog_serve::TraceConfig::off(),
        ..ServeConfig::default()
    }
}

/// Group of a tenant-mix clause: its head predicate's `t<k>_` prefix.
fn tenant_of(db: &ClauseDb, clause: &blog_logic::Clause) -> u32 {
    let head = blog_logic::term_to_string(db, &clause.head);
    head.strip_prefix('t')
        .and_then(|rest| rest.split('_').next())
        .and_then(|k| k.parse().ok())
        .expect("tenant-mix clauses are t<k>_-prefixed")
}

fn clause_table(
    db: &ClauseDb,
    group: impl Fn(&blog_logic::Clause) -> u32,
) -> (Vec<String>, Vec<u32>) {
    db.clauses()
        .iter()
        .map(|c| (clause_to_source(db.symbols(), c), group(c)))
        .unzip()
}

/// A Zipf-skewed tenant mix: `n_tenants` family trees of the given shape.
fn tenant_mix(n_tenants: usize, generations: u32, total: usize, seed: u64) -> TenantMix {
    TenantMix {
        n_tenants,
        queries_per_tenant: total.div_ceil(n_tenants),
        drift: 0.15,
        burst: 1,
        zipf_s: Some(1.2),
        family: FamilyParams {
            generations,
            branching: 3,
            seed,
            ..FamilyParams::default()
        },
        seed,
        ..TenantMix::default()
    }
}

/// Generate workload `w`'s inputs from `seed`.
pub fn generate(w: Workload, seed: u64) -> Generated {
    match w {
        Workload::HotSmall | Workload::ChurnLarge => {
            let (n_tenants, generations) = if w == Workload::HotSmall {
                (8, 3)
            } else {
                (160, 5)
            };
            let mix = tenant_mix(n_tenants, generations, w.stream_len(), seed);
            let (program, metas) = tenant_mix_program(&mix);
            let requests = tenant_mix_requests(&mix, &metas)
                .into_iter()
                .map(|r| Req {
                    session: r.tenant as u64,
                    group: r.tenant as u32,
                    text: r.text,
                })
                .collect();
            let (updates, headroom) = if w.churns() {
                let spec = ChurnSpec {
                    n_updates: CHURN_UPDATES,
                    ops_per_update: 1,
                    assert_share: 0.5,
                    seed: seed ^ 0xC4_u64,
                };
                let updates: Vec<Update> = churn_updates(&program.db, &metas, &spec)
                    .into_iter()
                    .map(|u| Update {
                        group: u.tenant as u32,
                        ops: u.ops,
                    })
                    .collect();
                // Every assert of the stream gets a slot: ids are never
                // reused, and the stream is applied at most once per run.
                let asserts = updates
                    .iter()
                    .flat_map(|u| &u.ops)
                    .filter(|op| matches!(op, ChurnOp::Assert { .. }))
                    .count();
                (updates, asserts)
            } else {
                (Vec::new(), 4096.max(PROBE_ASSERTS_MAX))
            };
            let db = &program.db;
            let (clause_texts, clause_groups) = clause_table(db, |c| tenant_of(db, c));
            let store_config = churn_store_config(db.len(), headroom);
            Generated {
                workload: w,
                clause_texts,
                clause_groups,
                requests,
                updates,
                store_config,
                serve_config: tenant_serve_config(),
                program,
            }
        }
        Workload::SearchOr => {
            let (queens, _) = queens_program(&QueensParams { n: 6 });
            let (mapcolor, _) = mapcolor_program(&MapColorParams {
                rows: 3,
                cols: 3,
                colors: 3,
            });
            let mut src = String::new();
            for db in [&queens.db, &mapcolor.db] {
                for c in db.clauses() {
                    src.push_str(&clause_to_source(db.symbols(), c));
                    src.push('\n');
                }
            }
            let program = parse_program(&src).expect("combined puzzle base parses");
            // The full puzzles plus every first-variable-bound variant.
            let qvars: Vec<String> = (1..=6).map(|i| format!("Q{i}")).collect();
            let mvars: Vec<String> = (0..9).map(|i| format!("R{i}")).collect();
            let mut texts = vec![
                format!("q({})", qvars.join(",")),
                format!("mc({})", mvars.join(",")),
            ];
            for c in 1..=6 {
                texts.push(format!("q({c},{})", qvars[1..].join(",")));
            }
            for colour in ["red", "green", "blue"] {
                texts.push(format!("mc({colour},{})", mvars[1..].join(",")));
            }
            // Shuffled rounds (see `SEARCH_ROUND`): any window of whole
            // rounds carries the same work, so batches and chunks compare
            // like with like.
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut requests = Vec::with_capacity(w.stream_len());
            while requests.len() < w.stream_len() {
                let mut round: Vec<usize> = (0..texts.len()).chain([0]).collect();
                debug_assert_eq!(round.len(), SEARCH_ROUND);
                for i in (1..round.len()).rev() {
                    round.swap(i, rng.gen_range(0..=i));
                }
                requests.extend(round.into_iter().map(|i| Req {
                    session: i as u64,
                    group: 0,
                    text: texts[i].clone(),
                }));
            }
            let (clause_texts, clause_groups) = clause_table(&program.db, |_| 0);
            let store_config = working_set_store_config(program.db.len() + PROBE_ASSERTS_MAX);
            let serve_config = ServeConfig {
                n_pools: 1,
                exec: ExecMode::OrParallel {
                    n_workers: 2,
                    policy: FrontierPolicy::Sharded { d: 512 },
                },
                cache: CacheConfig {
                    mode: CacheMode::Off,
                    ..CacheConfig::default()
                },
                ..tenant_serve_config()
            };
            Generated {
                workload: w,
                program,
                clause_texts,
                clause_groups,
                requests,
                updates: Vec::new(),
                store_config,
                serve_config,
            }
        }
    }
}

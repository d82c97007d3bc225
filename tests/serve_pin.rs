//! The serve plane's virtual-time behaviour is pinned: host-side changes
//! to the event loop must leave every report exactly as it was.
//!
//! Each configuration below serves seeded jobs on one SF 0.005 aware
//! store, and its whole `ServeReport`'s `{:?}` rendering folds into one
//! FNV-1a digest. Rust prints every `f64` in its shortest round-trip
//! form, so equal text means equal bits. Every configuration runs twice
//! and must digest the same both times, so no unordered map or other
//! run-to-run state can leak into the text.
//!
//! A digest pins only the paths its run takes, so each configuration
//! also asserts that it reaches the paths it is there for: the ingress
//! refusal and eviction, every shed reason, both kinds of failure, the
//! deadline and power-loss retries, the baseline's power-loss restart,
//! breaker and tenant-throttle queueing, brownout and the hot-tier curve.
//!
//! A deliberate change to the virtual plane re-records the digests it
//! moves and says which configurations and jobs moved.

use pmem_buffer::zipf::ZipfSampler;
use pmem_olap::planner::AccessPlanner;
use pmem_serve::{
    ClassTarget, HotTierPolicy, JobOutcome, JobSpec, OpenLoopPlan, OverloadPolicy, QueryServer,
    QueueReason, ResiliencePolicy, ServeConfig, ServeReport, ShedReason, SloClass, SloPolicy,
    TenantLoad, Verdict,
};
use pmem_sim::des::arrivals::ArrivalProcess;
use pmem_sim::faults::{FaultEvent, FaultKind, FaultPlan, FaultScheduleConfig};
use pmem_sim::rng::splitmix64;
use pmem_sim::sched::Pinning;
use pmem_sim::topology::SocketId;
use pmem_ssb::{EngineMode, QueryId, SsbStore, StorageDevice};

const SF: f64 = 0.005;
const STORE_SEED: u64 = 99;
const SEED: u64 = 7;
const MIB: u64 = 1 << 20;
/// Ingest unit of the open-loop surges.
const UNIT_BYTES: u64 = 64 * MIB;

/// A path through the event loop that a configuration must reach.
#[derive(Debug, Clone, Copy)]
enum Path {
    /// Some job waited with this verdict.
    Queued(QueueReason),
    /// Some job left with this shed reason.
    Shed(ShedReason),
    /// An arrival refused at a full ingress queue (stamped at arrival).
    Refused,
    /// A queued unit evicted later by a higher-class arrival.
    Evicted,
    /// A job failed after it had retried.
    FailedAfterRetries,
    /// A job failed on its first run (an unprotected media error).
    FailedUnretried,
    /// A job retried after a blown deadline (no power loss, no media).
    DeadlineRetry,
    /// A job without a deadline retried after a power loss.
    PowerLossRetry,
    /// The baseline restarted a job running on the socket that lost power.
    PowerLossRestart { socket: u8, at: f64 },
    /// The brownout ladder engaged.
    Brownout,
    /// Work ran while a fault degraded the machine.
    DegradedRun,
    /// An idle machine admitted a unit its caps refused a moment before.
    IdleFallback,
    /// The hot tier priced its five-point budget curve.
    TierCurve,
    /// A media error quarantined a socket and re-queued its work.
    Quarantined,
}

impl Path {
    fn reached(self, r: &ServeReport) -> bool {
        match self {
            Path::Queued(reason) => r.jobs.iter().any(|j| {
                j.verdicts
                    .iter()
                    .any(|(_, v)| *v == Verdict::Queued { reason })
            }),
            Path::Shed(reason) => r.jobs.iter().any(|j| j.outcome == JobOutcome::Shed(reason)),
            Path::Refused => r.jobs.iter().any(|j| {
                j.outcome == JobOutcome::Shed(ShedReason::QueueFull)
                    && j.verdicts.len() == 1
                    && j.finished_at == j.arrival
            }),
            Path::Evicted => r.jobs.iter().any(|j| {
                j.outcome == JobOutcome::Shed(ShedReason::QueueFull) && j.finished_at > j.arrival
            }),
            Path::FailedAfterRetries => r
                .jobs
                .iter()
                .any(|j| j.outcome == JobOutcome::Failed && j.retries > 0),
            Path::FailedUnretried => r
                .jobs
                .iter()
                .any(|j| j.outcome == JobOutcome::Failed && j.retries == 0),
            Path::DeadlineRetry => {
                r.power_loss_events == 0
                    && r.repaired == 0
                    && r.jobs.iter().any(|j| j.retries > 0 && j.deadline.is_some())
            }
            Path::PowerLossRetry => {
                r.power_loss_events > 0
                    && r.jobs.iter().any(|j| j.retries > 0 && j.deadline.is_none())
            }
            Path::PowerLossRestart { socket, at } => {
                r.power_loss_events > 0
                    && r.jobs.iter().all(|j| j.retries == 0)
                    && r.jobs.iter().any(|j| {
                        j.socket == SocketId(socket) && j.admitted_at < at && j.finished_at > at
                    })
            }
            Path::Brownout => r.brownout_seconds > 0.0,
            Path::DegradedRun => r.degraded_seconds > 0.0,
            Path::IdleFallback => r.jobs.iter().any(|j| {
                j.verdicts.windows(2).any(|w| {
                    w[0].0 == w[1].0
                        && matches!(w[0].1, Verdict::Queued { .. })
                        && w[1].1.is_admitted()
                })
            }),
            Path::TierCurve => r.hot_tier.as_ref().is_some_and(|t| t.curve.len() == 5),
            Path::Quarantined => r.quarantined > 0 && r.repaired > 0,
        }
    }
}

/// One pinned configuration: a server setup, its submissions, the
/// digest of its report and the paths it must reach.
struct Case {
    name: &'static str,
    digest: u64,
    config: ServeConfig,
    jobs: Vec<JobSpec>,
    paths: Vec<Path>,
}

fn fnv1a(text: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in text.bytes() {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

fn digest(store: &SsbStore, case: &Case) -> (u64, ServeReport) {
    let mut server = QueryServer::new(store, case.config.clone());
    server.submit_all(case.jobs.iter().copied());
    let report = server.run().expect("run succeeds");
    (fnv1a(&format!("{report:?}")), report)
}

/// Queries and ingest from three tenants over a few milliseconds: the
/// admission caps, shared scans and mixed-phase serialization all engage.
fn mixed_jobs() -> Vec<JobSpec> {
    let queries = [
        QueryId::Q1_1,
        QueryId::Q2_1,
        QueryId::Q3_1,
        QueryId::Q4_1,
        QueryId::Q1_1,
        QueryId::Q2_2,
        QueryId::Q3_2,
    ];
    let mut jobs: Vec<JobSpec> = queries
        .iter()
        .enumerate()
        .map(|(i, &q)| {
            JobSpec::query(q)
                .threads(4 + (i as u32 % 3))
                .tenant(i as u32 % 2)
                .arrival(0.0015 * i as f64)
        })
        .collect();
    jobs.extend((0..8u32).map(|i| {
        JobSpec::ingest(48 * MIB)
            .threads(2 + i % 3)
            .tenant(2)
            .arrival(0.0004 * f64::from(i))
    }));
    jobs
}

/// The fault-resilience suite's hostile schedule: socket 0 spends most
/// of the horizon write-throttled, takes stall bursts and loses power.
fn hostile_faults() -> FaultPlan {
    FaultPlan::generate(
        13,
        &FaultScheduleConfig {
            victim: Some(SocketId(0)),
            write_throttles: 4,
            throttle_factor: (0.05, 0.15),
            stall_bursts: 2,
            power_losses: 1,
            ..FaultScheduleConfig::over(1.0)
        },
    )
}

/// Twenty deadline-carrying 256 MiB ingests over the hostile window.
fn fault_jobs() -> Vec<JobSpec> {
    (0..20)
        .map(|i| {
            JobSpec::ingest(256 * MIB)
                .threads(2)
                .arrival(0.10 + 0.30 * f64::from(i) / 20.0)
                .deadline(0.40)
        })
        .collect()
}

fn event(start: f64, end: f64, kind: FaultKind) -> FaultEvent {
    FaultEvent { start, end, kind }
}

fn power_loss(at: f64, socket: u8) -> FaultEvent {
    event(
        at,
        at,
        FaultKind::PowerLoss {
            socket: SocketId(socket),
        },
    )
}

fn media_error(at: f64, socket: u8) -> FaultEvent {
    event(
        at,
        at,
        FaultKind::MediaError {
            socket: SocketId(socket),
            offset: 4096,
            lines: 4,
        },
    )
}

fn throttle(start: f64, end: f64, socket: u8, factor: f64) -> FaultEvent {
    event(
        start,
        end,
        FaultKind::WriteThrottle {
            socket: SocketId(socket),
            factor,
        },
    )
}

/// Media errors on socket 0 at 0.5 ms and on socket 1 at 4 ms, while the
/// media jobs run on both sockets.
fn media_faults() -> FaultPlan {
    FaultPlan::from_events(vec![media_error(0.0005, 0), media_error(0.004, 1)])
}

fn media_jobs() -> Vec<JobSpec> {
    vec![
        JobSpec::ingest(64 * MIB).threads(2).socket(SocketId(0)),
        JobSpec::query(QueryId::Q1_1).threads(4).socket(SocketId(0)),
        JobSpec::ingest(64 * MIB).threads(2).arrival(0.0002),
        JobSpec::query(QueryId::Q2_1).threads(4).arrival(0.0003),
        JobSpec::ingest(32 * MIB).threads(2).arrival(0.001),
    ]
}

/// The surge suite's three weighted tenants at twice the machine's write
/// capacity, one of them bursty.
fn surge_plan(planner: &AccessPlanner, horizon: f64) -> OpenLoopPlan {
    let budget = planner.concurrency_budget();
    let (_, write) = planner.expected_mixed(0, budget.writer_threads);
    let capacity = write.bytes_per_sec() * f64::from(planner.sockets().max(1));
    let per_tenant = 2.0 * capacity / UNIT_BYTES as f64 / 3.0;
    let template = JobSpec::ingest(UNIT_BYTES).threads(2);
    OpenLoopPlan::new(SEED, horizon)
        .tenant(TenantLoad::new(1, ArrivalProcess::poisson(per_tenant), template).weight(3.0))
        .tenant(TenantLoad::new(
            2,
            ArrivalProcess::poisson(per_tenant),
            template.slo(SloClass::Standard),
        ))
        .tenant(TenantLoad::new(
            3,
            ArrivalProcess::bursty(per_tenant * 2.0, 0.05, 0.05),
            template.slo(SloClass::BestEffort),
        ))
}

/// A serve-zipf-like round: Zipf-skewed queries from three classed
/// tenants beside best-effort ingest, arriving as one Poisson stream.
fn zipf_jobs(seed: u64) -> Vec<JobSpec> {
    let zipf = ZipfSampler::new(QueryId::ALL.len() as u64, 0.99);
    let mut state = splitmix64(seed);
    let mut uniform = || {
        state = splitmix64(state);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let classes = [
        SloClass::Interactive,
        SloClass::Standard,
        SloClass::BestEffort,
    ];
    let mut now = 0.0;
    let mut jobs = Vec::new();
    for _ in 0..48 {
        now += -(1.0 - uniform()).ln() / 1500.0;
        let spec = if uniform() < 0.4 {
            JobSpec::ingest(UNIT_BYTES)
                .tenant(4)
                .slo(SloClass::BestEffort)
        } else {
            let mut draw = splitmix64(uniform().to_bits());
            let query = QueryId::ALL[zipf.sample(&mut draw) as usize];
            let tenant = (uniform() * 3.0) as usize % 3;
            JobSpec::query(query)
                .tenant(tenant as u32 + 1)
                .slo(classes[tenant])
        };
        jobs.push(spec.threads(2).arrival(now));
    }
    jobs
}

fn zipf_config(planner: &AccessPlanner, store: &SsbStore) -> ServeConfig {
    ServeConfig::surge(planner)
        .with_hot_tier(HotTierPolicy::with_budget(store.fact_bytes() / 2))
        .with_slo_classes(SloPolicy::default_on())
}

fn cases(planner: &AccessPlanner, store: &SsbStore) -> Vec<Case> {
    let paper = ResiliencePolicy::paper();
    vec![
        Case {
            name: "scheduled",
            digest: 0xd84c91fe6d53226c,
            config: ServeConfig::scheduled(planner),
            jobs: mixed_jobs(),
            paths: vec![
                Path::Queued(QueueReason::WriterCap),
                Path::Queued(QueueReason::SerializeMixed),
            ],
        },
        Case {
            name: "cap-only",
            digest: 0x66e98b1640eb8108,
            config: ServeConfig::capped_mixed(planner),
            jobs: mixed_jobs(),
            paths: vec![Path::Queued(QueueReason::WriterCap)],
        },
        Case {
            name: "free-for-all",
            digest: 0xaaf268f909dcd8b1,
            config: ServeConfig::free_for_all().with_faults(FaultPlan::from_events(vec![event(
                0.002,
                0.02,
                FaultKind::UpiDegrade { factor: 0.4 },
            )])),
            jobs: mixed_jobs(),
            paths: vec![Path::DegradedRun],
        },
        Case {
            name: "faults-resilient",
            digest: 0x74044a66f098a0ec,
            config: ServeConfig::scheduled(planner)
                .with_faults(hostile_faults())
                .with_resilience(paper),
            jobs: fault_jobs(),
            paths: vec![Path::DegradedRun],
        },
        Case {
            name: "faults-baseline",
            digest: 0xa589ed58ded1a3ae,
            config: ServeConfig::scheduled(planner).with_faults(hostile_faults()),
            jobs: fault_jobs(),
            paths: vec![Path::DegradedRun],
        },
        Case {
            name: "media-protected",
            digest: 0x5ace2a4165a29955,
            config: ServeConfig::scheduled(planner)
                .with_faults(media_faults())
                .with_resilience(paper),
            jobs: media_jobs(),
            paths: vec![Path::Quarantined],
        },
        Case {
            name: "media-unprotected",
            digest: 0x9303602960e79b9e,
            config: ServeConfig::scheduled(planner).with_faults(media_faults()),
            jobs: media_jobs(),
            paths: vec![Path::FailedUnretried],
        },
        Case {
            name: "media-unrepairable",
            digest: 0xd7badadc7f023807,
            config: ServeConfig::scheduled(planner)
                .with_faults(media_faults())
                .with_resilience(ResiliencePolicy {
                    max_retries: 0,
                    ..paper
                }),
            jobs: media_jobs(),
            paths: vec![Path::Shed(ShedReason::Unrepairable)],
        },
        Case {
            name: "hopeless",
            digest: 0x3d2a564bcef090b2,
            config: ServeConfig::scheduled(planner)
                .with_faults(FaultPlan::from_events(vec![throttle(0.0, 10.0, 0, 0.05)]))
                .with_resilience(paper),
            jobs: (0..16u32)
                .map(|i| {
                    JobSpec::ingest(64 * MIB)
                        .threads(2)
                        .socket(SocketId((i % 2) as u8))
                        .arrival(0.0005 * f64::from(i / 2))
                        .deadline(0.03)
                })
                .collect(),
            paths: vec![
                Path::Shed(ShedReason::Overloaded),
                Path::Shed(ShedReason::Degraded),
            ],
        },
        Case {
            name: "retry-budget",
            digest: 0xdea0dbeb4e0095fc,
            config: ServeConfig::scheduled(planner)
                .with_faults(FaultPlan::from_events(vec![power_loss(0.010, 0)]))
                .with_resilience(paper)
                .with_overload(OverloadPolicy {
                    retry_fraction: 0.0,
                    retry_floor: 1,
                    ..OverloadPolicy::surge()
                }),
            jobs: (0..4)
                .map(|i| {
                    JobSpec::ingest(256 * MIB)
                        .threads(2)
                        .socket(SocketId(0))
                        .arrival(0.001 * f64::from(i))
                })
                .collect(),
            paths: vec![Path::Shed(ShedReason::RetryBudget), Path::PowerLossRetry],
        },
        Case {
            name: "breaker",
            digest: 0x13e7980a399e58be,
            config: ServeConfig::scheduled(planner)
                .with_faults(FaultPlan::from_events(vec![throttle(0.0, 10.0, 0, 0.05)]))
                .with_resilience(ResiliencePolicy {
                    shed_hopeless: false,
                    max_retries: 2,
                    ..paper
                })
                .with_overload({
                    let mut overload = OverloadPolicy::surge();
                    overload.breaker.window = 4;
                    overload.breaker.min_samples = 2;
                    overload
                }),
            jobs: (0..6)
                .map(|i| {
                    JobSpec::ingest(64 * MIB)
                        .threads(2)
                        .socket(SocketId(0))
                        .arrival(0.002 * f64::from(i))
                        .deadline(0.060)
                })
                .collect(),
            paths: vec![
                Path::Queued(QueueReason::CircuitOpen),
                Path::DeadlineRetry,
                Path::FailedAfterRetries,
                Path::IdleFallback,
            ],
        },
        Case {
            name: "ingress",
            digest: 0xba1d8176c5e89cf9,
            config: ServeConfig::scheduled(planner)
                .with_overload(OverloadPolicy {
                    queue_cap: 2,
                    ..OverloadPolicy::surge()
                })
                .with_slo_classes(SloPolicy::default_on()),
            // Two best-effort ingests fill both sockets' writer caps, two
            // more fill the tenant's queue and a fifth is refused; the
            // interactive arrivals then evict the queued best-effort pair
            // before the last of them is refused too.
            jobs: [0.0, 0.0, 0.0002, 0.0002, 0.0003]
                .into_iter()
                .map(|at| (SloClass::BestEffort, at))
                .chain([(SloClass::Interactive, 0.001); 3])
                .map(|(class, at)| JobSpec::ingest(64 * MIB).threads(4).slo(class).arrival(at))
                .collect(),
            paths: vec![Path::Refused, Path::Evicted],
        },
        Case {
            name: "surge",
            digest: 0xee117417a2ccaf71,
            config: ServeConfig::surge(planner).with_open_loop(surge_plan(planner, 0.3)),
            jobs: vec![],
            paths: vec![
                Path::Shed(ShedReason::QueueFull),
                Path::Queued(QueueReason::TenantThrottle),
                Path::Brownout,
            ],
        },
        Case {
            name: "surge-slo-faults",
            digest: 0x6b23f8a8e78f14e3,
            config: ServeConfig::surge(planner)
                .with_open_loop(surge_plan(planner, 0.3))
                .with_slo_classes(
                    SloPolicy::default_on()
                        .target(SloClass::Standard, ClassTarget::new(0.04, 0.06, 0.5)),
                )
                .with_faults(FaultPlan::from_events(vec![
                    throttle(0.02, 0.2, 1, 0.1),
                    power_loss(0.05, 0),
                ])),
            jobs: vec![],
            paths: vec![
                Path::Shed(ShedReason::Overloaded),
                Path::Shed(ShedReason::Degraded),
                Path::Brownout,
            ],
        },
        Case {
            name: "open-loop-baseline",
            digest: 0xc94449168b3006ed,
            config: ServeConfig::scheduled(planner)
                .with_open_loop(surge_plan(planner, 0.3))
                .with_faults(FaultPlan::from_events(vec![power_loss(0.05, 0)])),
            jobs: vec![],
            paths: vec![Path::PowerLossRestart {
                socket: 0,
                at: 0.05,
            }],
        },
        Case {
            name: "zipf-tier",
            digest: 0xcbe96a26007b27be,
            config: zipf_config(planner, store),
            jobs: zipf_jobs(SEED),
            paths: vec![Path::TierCurve, Path::Brownout],
        },
        Case {
            name: "zipf-tier-faults",
            digest: 0xa284478f9761a173,
            config: ServeConfig {
                pinning: Pinning::None,
                ..zipf_config(planner, store)
            }
            .with_faults(FaultPlan::from_events(vec![
                event(0.0, 0.05, FaultKind::UpiDegrade { factor: 0.5 }),
                throttle(0.01, 0.06, 1, 0.2),
                power_loss(0.03, 0),
            ])),
            jobs: zipf_jobs(SEED + 1),
            paths: vec![
                Path::TierCurve,
                Path::DegradedRun,
                Path::PowerLossRetry,
                Path::Brownout,
            ],
        },
    ]
}

#[test]
fn every_configuration_reports_its_pinned_digest() {
    let store =
        SsbStore::generate_and_load(SF, STORE_SEED, EngineMode::Aware, StorageDevice::PmemFsdax)
            .expect("store loads");
    let planner = AccessPlanner::paper_default();
    let mut moved = Vec::new();
    for case in cases(&planner, &store) {
        let (first, report) = digest(&store, &case);
        let (second, _) = digest(&store, &case);
        assert_eq!(
            first, second,
            "{}: two runs of one configuration differ",
            case.name
        );
        for path in &case.paths {
            assert!(
                path.reached(&report),
                "{} never reaches {path:?}",
                case.name
            );
        }
        if first != case.digest {
            moved.push(format!(
                "{}: {first:#018x} (pinned {:#018x})",
                case.name, case.digest
            ));
        }
    }
    assert!(
        moved.is_empty(),
        "serve reports moved:\n{}",
        moved.join("\n")
    );
}

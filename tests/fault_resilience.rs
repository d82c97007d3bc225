//! Acceptance test for the fault-injection tentpole: under a seeded
//! [`FaultPlan`], the resilient scheduler keeps meeting deadlines by
//! routing around the degraded socket, re-planning admission budgets, and
//! retrying power-loss victims — while the same schedule with resilience
//! disabled demonstrably misses.

use pmem_serve::{
    JobOutcome, JobSpec, QueryServer, ResiliencePolicy, ServeConfig, ServeHealth, ShedReason,
};
use pmem_sim::faults::{FaultEvent, FaultKind, FaultPlan, FaultScheduleConfig};
use pmem_sim::topology::SocketId;
use pmem_ssb::{EngineMode, SsbStore, StorageDevice};

/// The seed every run of this test uses: the whole point of the fault
/// subsystem is that this number fully determines the fault timeline.
/// Chosen so the generated throttle windows bury the whole arrival span
/// (see `assert_schedule_is_hostile`).
const FAULT_SEED: u64 = 13;

/// Concentrated hostility: socket 0 spends most of the horizon write-
/// throttled to 5–15 % of its WPQ drain rate, takes stall bursts, and
/// loses power once. Socket 1 stays healthy.
fn fault_config() -> FaultScheduleConfig {
    FaultScheduleConfig {
        victim: Some(SocketId(0)),
        write_throttles: 4,
        throttle_factor: (0.05, 0.15),
        stall_bursts: 2,
        power_losses: 1,
        ..FaultScheduleConfig::over(1.0)
    }
}

/// The chosen seed must bury the arrival window under throttle: every
/// deadline-carrying job that arrives while socket 0 looks healthy gets
/// round-robined onto it and the contrast the test asserts evaporates.
fn assert_schedule_is_hostile(plan: &FaultPlan) {
    let machine = pmem_sim::topology::Machine::paper_default();
    for step in 0..=40 {
        let t = ARRIVAL_START + (ARRIVAL_SPAN * step as f64) / 40.0;
        let s0 = plan.state_at(&machine, t).socket(SocketId(0));
        assert!(
            s0.write_scale < 0.5,
            "seed {FAULT_SEED:#x} leaves socket 0 healthy at t={t:.3}; pick another seed"
        );
    }
}

const JOBS: usize = 20;
const JOB_BYTES: u64 = 256 << 20;
const ARRIVAL_START: f64 = 0.10;
const ARRIVAL_SPAN: f64 = 0.30;
const DEADLINE: f64 = 0.40;

fn store() -> SsbStore {
    SsbStore::generate_and_load(0.005, 99, EngineMode::Aware, StorageDevice::PmemFsdax)
        .expect("store loads")
}

fn submit_fleet(server: &mut QueryServer<'_>) {
    for i in 0..JOBS {
        let arrival = ARRIVAL_START + ARRIVAL_SPAN * i as f64 / JOBS as f64;
        server.submit(
            JobSpec::ingest(JOB_BYTES)
                .threads(2)
                .arrival(arrival)
                .deadline(DEADLINE),
        );
    }
}

#[test]
fn identical_seeds_reproduce_identical_fault_timelines() {
    let cfg = fault_config();
    let a = FaultPlan::generate(FAULT_SEED, &cfg);
    let b = FaultPlan::generate(FAULT_SEED, &cfg);
    assert_eq!(a, b);
    assert!(!a.is_empty());
    assert_ne!(a, FaultPlan::generate(FAULT_SEED + 1, &cfg));
}

#[test]
fn resilient_scheduler_meets_deadlines_the_baseline_misses() {
    let plan = FaultPlan::generate(FAULT_SEED, &fault_config());
    assert_schedule_is_hostile(&plan);
    let store = store();

    // Baseline: same fault schedule, resilience off. Round-robin routing
    // lands half the writers on the throttled socket, nothing cancels or
    // re-plans, and power loss silently restarts whatever it hits.
    let mut baseline = QueryServer::new(
        &store,
        ServeConfig::scheduled(&pmem_olap::planner::AccessPlanner::paper_default())
            .with_faults(plan.clone()),
    );
    submit_fleet(&mut baseline);
    let base = baseline.run().expect("baseline run");

    // Resilient: deadlines enforced, degraded sockets avoided and
    // re-planned, hopeless jobs shed, power-loss victims retried.
    let mut resilient = QueryServer::new(
        &store,
        ServeConfig::scheduled(&pmem_olap::planner::AccessPlanner::paper_default())
            .with_faults(plan.clone())
            .with_resilience(ResiliencePolicy::paper()),
    );
    submit_fleet(&mut resilient);
    let good = resilient.run().expect("resilient run");

    eprintln!(
        "baseline: met {:.2} misses {} | resilient: met {:.2} misses {} shed {} failed {} \
         retried {} replans {} losses {} degraded {:.3}s health {}",
        base.deadline_met_fraction(),
        base.deadline_misses(),
        good.deadline_met_fraction(),
        good.deadline_misses(),
        good.shed_jobs(),
        good.failed_jobs(),
        good.retried_jobs(),
        good.replan_events,
        good.power_loss_events,
        good.degraded_seconds,
        good.health.label(),
    );

    assert!(
        good.deadline_met_fraction() >= 0.95,
        "resilient scheduler must complete >=95% of jobs within deadline, got {:.3}",
        good.deadline_met_fraction()
    );
    assert!(
        base.deadline_met_fraction() <= 0.75,
        "the unprotected baseline should demonstrably miss under the same faults, got {:.3}",
        base.deadline_met_fraction()
    );

    // The resilient report must surface what happened, not hide it.
    assert_ne!(good.health, ServeHealth::Healthy);
    assert!(good.replan_events > 0, "drifted socket budgets re-plan");
    assert_eq!(good.power_loss_events, 1, "the scheduled loss is counted");
    assert!(
        good.degraded_seconds > 0.0 || base.degraded_seconds > 0.0,
        "degraded wall time is accounted"
    );

    // Resilient routing concentrates the fleet on the healthy socket.
    let on_healthy = good.jobs.iter().filter(|j| j.socket == SocketId(1)).count();
    assert!(
        on_healthy > JOBS / 2,
        "resilient routing prefers the healthy socket ({on_healthy}/{JOBS})"
    );
}

#[test]
fn pinned_jobs_retry_with_backoff_and_hopeless_jobs_shed() {
    // Hand-built plan: socket 0 is write-throttled to 2% for 0.3 s. Jobs
    // pinned there cannot be routed to safety, so the deadline machinery
    // has to do the work: cancel, back off, retry, and eventually finish
    // once the throttle lifts.
    let plan = FaultPlan::from_events(vec![FaultEvent {
        start: 0.0,
        end: 0.3,
        kind: FaultKind::WriteThrottle {
            socket: SocketId(0),
            factor: 0.02,
        },
    }]);
    let store = store();
    let mut server = QueryServer::new(
        &store,
        ServeConfig::scheduled(&pmem_olap::planner::AccessPlanner::paper_default())
            .with_faults(plan)
            .with_resilience(ResiliencePolicy::paper()),
    );
    // Pinned to the sick socket with a deadline the throttle makes
    // unmeetable: first attempts blow, retries land after the window.
    let retrying = server.submit(
        JobSpec::ingest(256 << 20)
            .threads(2)
            .socket(SocketId(0))
            .deadline(0.15),
    );
    // A deadline no machine state could meet (solo healthy run needs
    // ~0.15 s): shed on arrival. Pinned to the healthy socket so the
    // verdict is Overloaded, not Degraded.
    let hopeless = server.submit(
        JobSpec::ingest(1 << 30)
            .threads(2)
            .socket(SocketId(1))
            .deadline(0.05),
    );
    let report = server.run().expect("run");

    let find = |id| {
        report
            .jobs
            .iter()
            .find(|j| j.id == id)
            .expect("job is reported")
    };
    let r = find(retrying);
    assert_eq!(r.outcome, JobOutcome::Completed, "retries rescue the job");
    assert!(r.retries >= 1, "the throttled attempt was cancelled");
    assert!(!r.met_deadline(), "but the original deadline is gone");
    let h = find(hopeless);
    assert_eq!(h.outcome, JobOutcome::Shed(ShedReason::Overloaded));
    assert_eq!(h.retries, 0, "shed jobs never run");

    assert_eq!(report.retried_jobs(), 1);
    assert_eq!(report.shed_jobs(), 1);
    assert_eq!(report.deadline_misses(), 2);
    assert_eq!(report.health, ServeHealth::Overloaded);
}

#[test]
fn power_loss_restarts_baseline_but_retries_resilient() {
    // One instantaneous power loss on socket 0 mid-run, otherwise healthy.
    let plan = FaultPlan::from_events(vec![FaultEvent {
        start: 0.02,
        end: 0.02,
        kind: FaultKind::PowerLoss {
            socket: SocketId(0),
        },
    }]);
    let store = store();
    let run = |resilience: Option<ResiliencePolicy>| {
        let mut server = QueryServer::new(
            &store,
            ServeConfig {
                resilience,
                ..ServeConfig::scheduled(&pmem_olap::planner::AccessPlanner::paper_default())
                    .with_faults(plan.clone())
            },
        );
        let id = server.submit(JobSpec::ingest(256 << 20).threads(2).socket(SocketId(0)));
        let report = server.run().expect("run");
        let job = report
            .jobs
            .iter()
            .find(|j| j.id == id)
            .cloned()
            .expect("job is reported");
        (report, job)
    };

    let (base_report, base_job) = run(None);
    let (res_report, res_job) = run(Some(ResiliencePolicy::paper()));

    assert_eq!(base_report.power_loss_events, 1);
    assert_eq!(res_report.power_loss_events, 1);
    assert_eq!(base_job.outcome, JobOutcome::Completed);
    assert_eq!(base_job.retries, 0, "the baseline only grinds");
    assert!(
        base_job.finished_at > 0.02,
        "progress was reset at the loss"
    );
    assert_eq!(res_job.outcome, JobOutcome::Completed);
    assert_eq!(res_job.retries, 1, "the resilient path retried the victim");
    assert_eq!(res_job.socket, SocketId(0), "pins survive the retry");
}

#[test]
fn identical_runs_produce_identical_virtual_outcomes() {
    let plan = FaultPlan::generate(FAULT_SEED, &fault_config());
    let store = store();
    let run = |store: &SsbStore| {
        let mut server = QueryServer::new(
            store,
            ServeConfig::scheduled(&pmem_olap::planner::AccessPlanner::paper_default())
                .with_faults(plan.clone())
                .with_resilience(ResiliencePolicy::paper()),
        );
        submit_fleet(&mut server);
        server.run().expect("run")
    };
    let a = run(&store);
    let b = run(&store);
    assert_eq!(a.makespan, b.makespan, "virtual time is deterministic");
    assert_eq!(a.replan_events, b.replan_events);
    assert_eq!(a.power_loss_events, b.power_loss_events);
    for (x, y) in a.jobs.iter().zip(&b.jobs) {
        assert_eq!(x.socket, y.socket, "{} routed identically", x.id);
        assert_eq!(x.outcome, y.outcome, "{} same outcome", x.id);
        assert_eq!(x.retries, y.retries, "{} same retries", x.id);
        assert_eq!(x.finished_at, y.finished_at, "{} same finish", x.id);
    }
}

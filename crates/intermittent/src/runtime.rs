use crate::{CheckpointPolicy, NvmModel, TaskChain};
use hems_sim::{Controller, Simulation};
use hems_units::{Cycles, Seconds, Volts};

/// End-of-run forward-progress accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForwardProgress {
    /// Fully committed chain iterations.
    pub chain_completions: u64,
    /// Committed tasks beyond the last completed iteration.
    pub committed_tasks: usize,
    /// Cycles of task work that ended up committed.
    pub useful_cycles: Cycles,
    /// Cycles lost to rollbacks (uncommitted work and interrupted commits).
    pub wasted_cycles: Cycles,
    /// Cycles spent on checkpoints that committed.
    pub checkpoint_cycles: Cycles,
    /// Cycles of work done since the last commit, still volatile at the end
    /// of the run.
    pub in_flight_cycles: Cycles,
    /// Number of rollbacks (power-failure replays).
    pub rollbacks: usize,
}

impl ForwardProgress {
    /// Fraction of executed cycles that became committed useful work.
    pub fn goodput(&self) -> f64 {
        let total = self.useful_cycles.count()
            + self.wasted_cycles.count()
            + self.checkpoint_cycles.count()
            + self.in_flight_cycles.count();
        if total > 0.0 {
            self.useful_cycles.count() / total
        } else {
            0.0
        }
    }
}

/// One durably committed task completion, reported in commit order.
///
/// The commit stream is the runtime's externally visible "result": a
/// crash-consistent execution commits the chain's tasks exactly once each,
/// in chain order, with positions strictly increasing — no matter how many
/// power failures interrupt it. Chaos campaigns digest this stream and
/// compare faulted runs against fault-free ones.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommitEvent {
    /// Simulation time at which the commit completed.
    pub at: Seconds,
    /// Chain iteration the committed task belongs to.
    pub iteration: u64,
    /// Task index within the chain.
    pub task: usize,
}

impl CommitEvent {
    /// The task's absolute position in the run: `iteration * chain_len +
    /// task`. Crash consistency means positions are exactly `0, 1, 2, …`
    /// with no gaps, duplicates, or regressions.
    pub fn position(&self, chain_len: usize) -> u64 {
        self.iteration * chain_len as u64 + self.task as u64
    }
}

/// Drives a simulation while executing a repeating task chain with
/// checkpointed, rollback-correct progress — see the crate docs.
#[derive(Debug, Clone)]
pub struct IntermittentRuntime {
    chain: TaskChain,
    policy: CheckpointPolicy,
    nvm: NvmModel,
    // Persistent (survives power failure).
    committed_task: usize,
    committed_iterations: u64,
    // Volatile (lost at power failure).
    volatile_task: usize,
    volatile_iterations: u64,
    task_progress: f64,
    work_since_commit: f64,
    words_since_commit: usize,
    tasks_since_commit: usize,
    commit_remaining: Option<f64>,
    commit_spent: f64,
    // Statistics.
    useful: f64,
    wasted: f64,
    checkpoint: f64,
    rollbacks: usize,
}

impl IntermittentRuntime {
    /// Builds a runtime.
    ///
    /// # Panics
    ///
    /// Panics if the policy fails validation — construct policies through
    /// [`CheckpointPolicy::validate`] when handling untrusted input.
    pub fn new(chain: TaskChain, policy: CheckpointPolicy, nvm: NvmModel) -> IntermittentRuntime {
        policy
            .validate()
            // hems-lint: allow(panic_reach, reason = "documented panic contract: this constructor's docs direct untrusted input through CheckpointPolicy::validate first")
            .expect("checkpoint policy failed validation");
        IntermittentRuntime {
            chain,
            policy,
            nvm,
            committed_task: 0,
            committed_iterations: 0,
            volatile_task: 0,
            volatile_iterations: 0,
            task_progress: 0.0,
            work_since_commit: 0.0,
            words_since_commit: 0,
            tasks_since_commit: 0,
            commit_remaining: None,
            commit_spent: 0.0,
            useful: 0.0,
            wasted: 0.0,
            checkpoint: 0.0,
            rollbacks: 0,
        }
    }

    /// The task chain.
    pub fn chain(&self) -> &TaskChain {
        &self.chain
    }

    /// The checkpoint policy.
    pub fn policy(&self) -> CheckpointPolicy {
        self.policy
    }

    /// Runs the simulation for `duration` under `controller`, executing the
    /// chain with the configured checkpointing. Returns the accounting.
    pub fn run(
        &mut self,
        sim: &mut Simulation,
        controller: &mut dyn Controller,
        duration: Seconds,
    ) -> ForwardProgress {
        self.run_observed(sim, controller, duration, &mut |_| {})
    }

    /// [`run`](IntermittentRuntime::run) with a commit observer: `observe`
    /// is called once per durably committed task, in commit order, as the
    /// commits complete. Fault-injection campaigns use this to digest the
    /// commit stream and prove crash consistency.
    pub fn run_observed(
        &mut self,
        sim: &mut Simulation,
        controller: &mut dyn Controller,
        duration: Seconds,
        observe: &mut dyn FnMut(&CommitEvent),
    ) -> ForwardProgress {
        let dt = sim.config().dt;
        let steps = (duration.seconds() / dt.seconds()).round() as u64;
        let mut last_cycles = sim.total_cycles().count();
        let mut last_brownouts = sim.events().brownouts();
        for _ in 0..steps {
            sim.step(controller);
            let now_cycles = sim.total_cycles().count();
            let delta = now_cycles - last_cycles;
            last_cycles = now_cycles;
            let brownouts = sim.events().brownouts();
            if brownouts > last_brownouts {
                last_brownouts = brownouts;
                self.rollback();
            }
            if delta > 0.0 {
                self.execute(delta, sim.v_solar(), sim.now(), observe);
            }
        }
        self.progress()
    }

    /// The accounting so far.
    pub fn progress(&self) -> ForwardProgress {
        ForwardProgress {
            chain_completions: self.committed_iterations,
            committed_tasks: self.committed_task,
            useful_cycles: Cycles::new(self.useful),
            wasted_cycles: Cycles::new(self.wasted),
            checkpoint_cycles: Cycles::new(self.checkpoint),
            in_flight_cycles: Cycles::new(
                self.work_since_commit + self.task_progress + self.commit_spent,
            ),
            rollbacks: self.rollbacks,
        }
    }

    /// Loses all volatile state: back to the last commit.
    fn rollback(&mut self) {
        let lost = self.work_since_commit + self.task_progress + self.commit_spent;
        if lost > 0.0 {
            self.wasted += lost;
        }
        if lost > 0.0 || self.volatile_task != self.committed_task {
            self.rollbacks += 1;
        }
        self.volatile_task = self.committed_task;
        self.volatile_iterations = self.committed_iterations;
        self.task_progress = 0.0;
        self.work_since_commit = 0.0;
        self.words_since_commit = 0;
        self.tasks_since_commit = 0;
        self.commit_remaining = None;
        self.commit_spent = 0.0;
    }

    /// Spends `budget` executed cycles on commit-in-progress and task work.
    fn execute(
        &mut self,
        mut budget: f64,
        v_solar: Volts,
        now: Seconds,
        observe: &mut dyn FnMut(&CommitEvent),
    ) {
        while budget > 0.0 {
            // Finish an in-flight commit first.
            if let Some(remaining) = self.commit_remaining {
                let spend = remaining.min(budget);
                budget -= spend;
                self.commit_spent += spend;
                if spend >= remaining {
                    // Commit completes atomically.
                    self.checkpoint += self.commit_spent;
                    self.useful += self.work_since_commit;
                    let len = self.chain.len() as u64;
                    let from = self.committed_iterations * len + self.committed_task as u64;
                    let to = self.volatile_iterations * len + self.volatile_task as u64;
                    for pos in from..to {
                        observe(&CommitEvent {
                            at: now,
                            iteration: pos / len,
                            task: (pos % len) as usize,
                        });
                    }
                    self.committed_task = self.volatile_task;
                    self.committed_iterations = self.volatile_iterations;
                    self.work_since_commit = 0.0;
                    self.words_since_commit = 0;
                    self.tasks_since_commit = 0;
                    self.commit_remaining = None;
                    self.commit_spent = 0.0;
                } else {
                    self.commit_remaining = Some(remaining - spend);
                    return;
                }
                continue;
            }
            // Work on the current task.
            let task = &self.chain.tasks()[self.volatile_task];
            let need = task.cycles().count() - self.task_progress;
            let spend = need.min(budget);
            budget -= spend;
            self.task_progress += spend;
            if spend < need {
                return;
            }
            // Task boundary.
            self.work_since_commit += task.cycles().count();
            self.words_since_commit += task.state_words();
            self.tasks_since_commit += 1;
            self.task_progress = 0.0;
            self.volatile_task += 1;
            let at_chain_boundary = self.volatile_task == self.chain.len();
            if at_chain_boundary {
                self.volatile_task = 0;
                self.volatile_iterations += 1;
            }
            if self
                .policy
                .should_commit(self.tasks_since_commit, v_solar, at_chain_boundary)
            {
                self.commit_remaining = Some(self.nvm.commit_cost(self.words_since_commit).count());
                self.commit_spent = 0.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Task;
    use hems_core::{HolisticController, Mode};
    use hems_pv::Irradiance;
    use hems_sim::{FixedVoltageController, LightProfile, SystemConfig};
    use hems_units::XorShiftRng;

    fn small_chain() -> TaskChain {
        TaskChain::new(vec![
            Task::new("a", Cycles::new(100_000.0), 64),
            Task::new("b", Cycles::new(200_000.0), 128),
            Task::new("c", Cycles::new(50_000.0), 8),
        ])
        .expect("valid chain")
    }

    fn sim_with(light: LightProfile, v0: f64) -> Simulation {
        let config = SystemConfig::paper_sc_system().expect("valid config");
        Simulation::new(config, light, Volts::new(v0)).expect("valid sim")
    }

    #[test]
    fn steady_power_makes_clean_progress() {
        let mut runtime =
            IntermittentRuntime::new(small_chain(), CheckpointPolicy::EveryTask, NvmModel::fram());
        let mut sim = sim_with(LightProfile::constant(Irradiance::FULL_SUN), 1.1);
        let mut ctl = HolisticController::paper_default(Mode::MaxPerformance);
        let report = runtime.run(&mut sim, &mut ctl, Seconds::from_milli(500.0));
        assert!(report.chain_completions > 5, "{report:?}");
        assert_eq!(report.rollbacks, 0);
        assert_eq!(report.wasted_cycles.count(), 0.0);
        assert!(report.goodput() > 0.9, "goodput {}", report.goodput());
    }

    #[test]
    fn power_cycling_loses_only_uncommitted_work() {
        // A brutal light square wave forces repeated brownouts; per-task
        // checkpointing bounds each loss to under one task + one commit.
        let mut runtime =
            IntermittentRuntime::new(small_chain(), CheckpointPolicy::EveryTask, NvmModel::fram());
        let light = LightProfile::Step {
            before: Irradiance::FULL_SUN,
            after: Irradiance::DARK,
            at: Seconds::from_milli(80.0),
        };
        let mut sim = sim_with(light, 1.1);
        // Greedy fixed controller: will die when the light goes out.
        let mut ctl = FixedVoltageController::new(Volts::new(0.6));
        let report = runtime.run(&mut sim, &mut ctl, Seconds::from_milli(200.0));
        assert!(report.rollbacks >= 1);
        let max_loss_per_rollback = 200_000.0 + NvmModel::fram().commit_cost(128).count();
        assert!(
            report.wasted_cycles.count() <= report.rollbacks as f64 * max_loss_per_rollback + 1.0,
            "wasted {} over {} rollbacks",
            report.wasted_cycles.count(),
            report.rollbacks
        );
        // Committed progress survived the outage.
        assert!(report.chain_completions >= 1 || report.committed_tasks >= 1);
    }

    #[test]
    fn chain_boundary_policy_wastes_more_under_failures() {
        let run_with = |policy: CheckpointPolicy| {
            let mut runtime = IntermittentRuntime::new(small_chain(), policy, NvmModel::fram());
            // Flickering light: repeated deaths mid-chain. Seeded clouds
            // between dark and quarter sun cause periodic brownouts.
            let light = LightProfile::clouds(
                Irradiance::DARK,
                Irradiance::HALF_SUN,
                Seconds::from_milli(60.0),
                Seconds::new(2.0),
                99,
            );
            let mut sim = sim_with(light, 1.0);
            let mut ctl = FixedVoltageController::new(Volts::new(0.55));
            runtime.run(&mut sim, &mut ctl, Seconds::new(2.0))
        };
        let per_task = run_with(CheckpointPolicy::EveryTask);
        let restart = run_with(CheckpointPolicy::ChainBoundary);
        assert!(
            restart.wasted_cycles.count() >= per_task.wasted_cycles.count(),
            "restart wasted {} < per-task wasted {}",
            restart.wasted_cycles.count(),
            per_task.wasted_cycles.count()
        );
    }

    #[test]
    fn checkpoint_overhead_shrinks_with_coarser_policies() {
        // Under clean power, EveryTask pays the most checkpoint cycles.
        let run_with = |policy: CheckpointPolicy| {
            let mut runtime = IntermittentRuntime::new(small_chain(), policy, NvmModel::fram());
            let mut sim = sim_with(LightProfile::constant(Irradiance::FULL_SUN), 1.1);
            let mut ctl = HolisticController::paper_default(Mode::MaxPerformance);
            runtime.run(&mut sim, &mut ctl, Seconds::from_milli(300.0))
        };
        let fine = run_with(CheckpointPolicy::EveryTask);
        let coarse = run_with(CheckpointPolicy::ChainBoundary);
        // Same useful-work opportunity, fewer commits. Compare overhead per
        // committed iteration to normalize slight progress differences.
        let fine_rate = fine.checkpoint_cycles.count() / fine.chain_completions.max(1) as f64;
        let coarse_rate = coarse.checkpoint_cycles.count() / coarse.chain_completions.max(1) as f64;
        assert!(
            coarse_rate < fine_rate,
            "coarse {coarse_rate} >= fine {fine_rate}"
        );
    }

    #[test]
    fn low_voltage_policy_checkpoints_rarely_in_bright_light() {
        let mut runtime = IntermittentRuntime::new(
            small_chain(),
            CheckpointPolicy::OnLowVoltage {
                threshold: Volts::new(0.8),
            },
            NvmModel::fram(),
        );
        let mut sim = sim_with(LightProfile::constant(Irradiance::FULL_SUN), 1.1);
        let mut ctl = HolisticController::paper_default(Mode::MaxPerformance);
        let report = runtime.run(&mut sim, &mut ctl, Seconds::from_milli(300.0));
        // Bright, stable node: commits only at chain boundaries.
        let fine =
            IntermittentRuntime::new(small_chain(), CheckpointPolicy::EveryTask, NvmModel::fram());
        drop(fine);
        assert!(report.chain_completions > 0);
        let per_iter = report.checkpoint_cycles.count() / report.chain_completions as f64;
        // One commit per iteration (3 tasks' words = 200) costs
        // 500 + 4*200 = 1300 cycles.
        assert!(
            per_iter < 1_500.0,
            "checkpointing {per_iter} cycles per iteration in bright light"
        );
    }

    #[test]
    fn accounting_is_self_consistent() {
        let mut runtime = IntermittentRuntime::new(
            small_chain(),
            CheckpointPolicy::EveryNTasks(2),
            NvmModel::fram(),
        );
        let light = LightProfile::clouds(
            Irradiance::DARK,
            Irradiance::FULL_SUN,
            Seconds::from_milli(50.0),
            Seconds::new(1.0),
            7,
        );
        let mut sim = sim_with(light, 1.0);
        let mut ctl = FixedVoltageController::new(Volts::new(0.55));
        let report = runtime.run(&mut sim, &mut ctl, Seconds::new(1.0));
        let accounted = report.useful_cycles.count()
            + report.wasted_cycles.count()
            + report.checkpoint_cycles.count()
            + report.in_flight_cycles.count();
        let executed = sim.total_cycles().count();
        assert!(
            (accounted - executed).abs() < 1.0,
            "accounted {accounted} vs executed {executed}"
        );
    }

    #[test]
    fn commit_stream_is_contiguous_even_under_power_cycling() {
        // The crash-consistency invariant behind the power_faults oracle: the
        // observed commit stream is exactly positions 0, 1, 2, … regardless
        // of how many brownouts interrupt execution.
        let mut runtime =
            IntermittentRuntime::new(small_chain(), CheckpointPolicy::EveryTask, NvmModel::fram());
        let light = LightProfile::clouds(
            Irradiance::DARK,
            Irradiance::FULL_SUN,
            Seconds::from_milli(50.0),
            Seconds::new(1.0),
            23,
        );
        let mut sim = sim_with(light, 1.0);
        let mut ctl = FixedVoltageController::new(Volts::new(0.55));
        let mut events = Vec::new();
        let report = runtime.run_observed(&mut sim, &mut ctl, Seconds::new(1.0), &mut |e| {
            events.push(*e)
        });
        assert!(report.rollbacks >= 1, "light never failed: {report:?}");
        assert!(!events.is_empty(), "nothing ever committed");
        let len = runtime.chain().len();
        for (expect, event) in events.iter().enumerate() {
            assert_eq!(
                event.position(len),
                expect as u64,
                "commit stream has a gap, duplicate, or regression: {event:?}"
            );
        }
        // The last event agrees with the final accounting.
        let last = events[events.len() - 1];
        let committed = report.chain_completions * len as u64 + report.committed_tasks as u64;
        assert_eq!(last.position(len) + 1, committed);
        // Timestamps never move backwards.
        for pair in events.windows(2) {
            assert!(pair[1].at >= pair[0].at);
        }
    }

    #[test]
    fn progress_is_monotone_and_goodput_bounded_under_adversarial_policies() {
        // Satellite property test: across seeded random checkpoint policies
        // and hostile seeded light, forward progress (the committed
        // position) is monotone within a run, goodput stays in [0, 1], and
        // the cycle accounting matches what the sim actually executed.
        let mut rng = XorShiftRng::seed_from_u64(0xC4A0_5EED);
        for trial in 0..12 {
            let policy = match rng.below_u32(4) {
                0 => CheckpointPolicy::EveryTask,
                1 => CheckpointPolicy::EveryNTasks(1 + rng.below_u32(5) as usize),
                2 => CheckpointPolicy::OnLowVoltage {
                    threshold: Volts::new(rng.range_f64(0.55, 1.0)),
                },
                _ => CheckpointPolicy::ChainBoundary,
            };
            let light = LightProfile::clouds(
                Irradiance::DARK,
                Irradiance::new(rng.range_f64(0.1, 1.0)).expect("fraction in range"),
                Seconds::from_milli(rng.range_f64(20.0, 120.0)),
                Seconds::new(1.0),
                rng.next_u64(),
            );
            let mut runtime = IntermittentRuntime::new(small_chain(), policy, NvmModel::fram());
            let mut sim = sim_with(light, rng.range_f64(0.8, 1.1));
            let mut ctl = FixedVoltageController::new(Volts::new(rng.range_f64(0.55, 0.7)));
            let len = runtime.chain().len();
            let mut last_pos = None;
            let report = runtime.run_observed(&mut sim, &mut ctl, Seconds::new(1.0), &mut |e| {
                let pos = e.position(len);
                if let Some(prev) = last_pos {
                    assert!(pos > prev, "trial {trial}: position {pos} after {prev}");
                }
                last_pos = Some(pos);
            });
            let goodput = report.goodput();
            assert!(
                (0.0..=1.0).contains(&goodput),
                "trial {trial} ({policy:?}): goodput {goodput} out of [0,1]"
            );
            let accounted = report.useful_cycles.count()
                + report.wasted_cycles.count()
                + report.checkpoint_cycles.count()
                + report.in_flight_cycles.count();
            let executed = sim.total_cycles().count();
            assert!(
                (accounted - executed).abs() < 1.0,
                "trial {trial} ({policy:?}): accounted {accounted} vs executed {executed}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "policy failed validation")]
    fn invalid_policy_panics_at_construction() {
        let _ = IntermittentRuntime::new(
            small_chain(),
            CheckpointPolicy::EveryNTasks(0),
            NvmModel::fram(),
        );
    }
}

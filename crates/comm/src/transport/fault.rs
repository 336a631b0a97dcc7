//! Deterministic fault injection for exercising failure and recovery paths.
//!
//! [`FaultInjectTransport`] wraps any [`Transport`] and perturbs its
//! send/receive stream according to a seeded [`FaultPlan`]: kill the endpoint
//! at the N-th frame (as a sticky typed death, or as a hard `process::exit`
//! for multi-process drills), drop receives with a seeded probability
//! (surfacing as typed timeouts), or delay every k-th operation. Plans are
//! pure functions of `(seed, frame index)`, so a failing CI run replays
//! exactly.
//!
//! The wrapper deliberately does **not** forward [`Transport::barrier`] to the
//! inner backend: it inherits the trait's default central barrier over its own
//! `send`/`recv`, so injected faults perturb barriers too and a victim of an
//! injected kill can never strand live peers inside a native barrier primitive
//! that no timeout governs.
//!
//! [`FaultInjectTransport::recover`] clears the sticky injected death and
//! disarms the one-shot plan before recovering the inner transport — the
//! retry after a recovery runs clean, mirroring a respawned process that comes
//! back without its kill switch.

use std::cell::{Cell, RefCell};
use std::sync::OnceLock;
use std::time::Duration;

use xtrapulp_obs::registry::Counter;

use super::{Frame, Transport, TransportError};

fn injected_faults_counter() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| xtrapulp_obs::registry::counter("transport_injected_faults_total"))
}

/// splitmix64: the per-frame decision stream of a plan.
fn mix(seed: u64, frame: u64) -> u64 {
    let mut x = seed.wrapping_add((frame.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A seeded, deterministic schedule of injected faults.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    /// Kill the endpoint when the combined send+recv frame counter reaches
    /// this value.
    kill_at_frame: Option<u64>,
    /// `None`: the kill is a sticky typed [`TransportError::PeerDeath`].
    /// `Some(code)`: the kill is a hard `process::exit(code)` — the
    /// multi-process drill's way of dying exactly mid-collective.
    kill_exit_code: Option<i32>,
    /// Probability in [0, 1] that any given receive is dropped (surfacing as
    /// a typed zero-wait [`TransportError::Timeout`]).
    drop_recv_probability: f64,
    /// Sleep this long before every k-th operation.
    delay: Option<(u64, Duration)>,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given jitter/drop decision seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            kill_at_frame: None,
            kill_exit_code: None,
            drop_recv_probability: 0.0,
            delay: None,
        }
    }

    /// Kill the endpoint (sticky typed death) once `frame` send/recv
    /// operations have completed.
    pub fn kill_at_frame(mut self, frame: u64) -> FaultPlan {
        self.kill_at_frame = Some(frame);
        self.kill_exit_code = None;
        self
    }

    /// Kill the whole process with `exit(code)` once `frame` send/recv
    /// operations have completed. For multi-process drills only.
    pub fn kill_process_at_frame(mut self, frame: u64, code: i32) -> FaultPlan {
        self.kill_at_frame = Some(frame);
        self.kill_exit_code = Some(code);
        self
    }

    /// Drop each receive with probability `p` (deterministically derived from
    /// the seed and the frame index), surfacing a typed timeout.
    pub fn drop_recv_probability(mut self, p: f64) -> FaultPlan {
        self.drop_recv_probability = p.clamp(0.0, 1.0);
        self
    }

    /// Sleep `delay` before every `every`-th operation (1 = every operation).
    pub fn delay_every(mut self, every: u64, delay: Duration) -> FaultPlan {
        self.delay = Some((every.max(1), delay));
        self
    }

    fn should_drop(&self, frame: u64) -> bool {
        self.drop_recv_probability > 0.0
            && (mix(self.seed, frame) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
                < self.drop_recv_probability
    }
}

/// A [`Transport`] wrapper executing a [`FaultPlan`] against its traffic.
pub struct FaultInjectTransport {
    inner: Box<dyn Transport>,
    plan: RefCell<FaultPlan>,
    /// Combined send+recv operation counter driving the plan.
    frames: Cell<u64>,
    /// Sticky injected death; cleared by [`FaultInjectTransport::recover`].
    killed: RefCell<Option<TransportError>>,
}

impl FaultInjectTransport {
    /// Wrap `inner`, injecting faults per `plan`.
    pub fn new(inner: Box<dyn Transport>, plan: FaultPlan) -> FaultInjectTransport {
        FaultInjectTransport {
            inner,
            plan: RefCell::new(plan),
            frames: Cell::new(0),
            killed: RefCell::new(None),
        }
    }

    /// Send/recv operations observed so far.
    pub fn frames(&self) -> u64 {
        self.frames.get()
    }

    /// Apply the plan to the operation numbered by the current frame counter.
    /// Returns the injected error, if any fires.
    fn pre_op(&self, peer: usize, is_recv: bool) -> Result<(), TransportError> {
        if let Some(err) = self.killed.borrow().as_ref() {
            return Err(err.clone());
        }
        let frame = self.frames.get();
        self.frames.set(frame + 1);
        let plan = self.plan.borrow();
        if let Some((every, delay)) = plan.delay {
            if frame.is_multiple_of(every) {
                injected_faults_counter().inc();
                std::thread::sleep(delay);
            }
        }
        if let Some(kill_at) = plan.kill_at_frame {
            if frame >= kill_at {
                if let Some(code) = plan.kill_exit_code {
                    // The drill's deliberate mid-collective death: the OS
                    // closes our sockets, peers see the EOF cascade.
                    std::process::exit(code);
                }
                injected_faults_counter().inc();
                let err = TransportError::PeerDeath {
                    peer,
                    detail: format!("injected fault: endpoint killed at frame {kill_at}"),
                };
                *self.killed.borrow_mut() = Some(err.clone());
                return Err(err);
            }
        }
        if is_recv && plan.should_drop(frame) {
            injected_faults_counter().inc();
            return Err(TransportError::Timeout { peer, after_ms: 0 });
        }
        Ok(())
    }
}

impl Transport for FaultInjectTransport {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn nranks(&self) -> usize {
        self.inner.nranks()
    }

    fn is_wire(&self) -> bool {
        self.inner.is_wire()
    }

    fn backend(&self) -> &'static str {
        "fault-inject"
    }

    fn clock_offset_ns(&self) -> i64 {
        self.inner.clock_offset_ns()
    }

    fn send(&self, dst: usize, frame: Frame) -> Result<u64, TransportError> {
        self.pre_op(dst, false)?;
        self.inner.send(dst, frame)
    }

    fn recv(&self, src: usize) -> Result<Frame, TransportError> {
        self.pre_op(src, true)?;
        self.inner.recv(src)
    }

    fn recover(&self) -> Result<(), TransportError> {
        // A recovered endpoint comes back clean: clear the sticky death and
        // disarm the one-shot faults, exactly like a respawned process
        // relaunched without its kill switch.
        *self.killed.borrow_mut() = None;
        let mut plan = self.plan.borrow_mut();
        plan.kill_at_frame = None;
        plan.drop_recv_probability = 0.0;
        drop(plan);
        self.inner.recover()
    }

    // No `barrier` override: the trait's default central barrier runs over
    // this wrapper's own send/recv, so injected faults perturb barriers too
    // (and peers are never stranded in an inner barrier primitive with no
    // timeout).
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_decisions_are_deterministic_in_seed_and_frame() {
        let plan_a = FaultPlan::new(7).drop_recv_probability(0.3);
        let plan_b = FaultPlan::new(7).drop_recv_probability(0.3);
        let decisions_a: Vec<bool> = (0..256).map(|f| plan_a.should_drop(f)).collect();
        let decisions_b: Vec<bool> = (0..256).map(|f| plan_b.should_drop(f)).collect();
        assert_eq!(decisions_a, decisions_b);
        let dropped = decisions_a.iter().filter(|&&d| d).count();
        // ~30% of 256, loosely bounded.
        assert!((30..125).contains(&dropped), "dropped {dropped} of 256");
        // A different seed yields a different stream.
        let plan_c = FaultPlan::new(8).drop_recv_probability(0.3);
        assert_ne!(
            decisions_a,
            (0..256).map(|f| plan_c.should_drop(f)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn zero_probability_never_drops() {
        let plan = FaultPlan::new(1);
        assert!((0..1024).all(|f| !plan.should_drop(f)));
    }
}

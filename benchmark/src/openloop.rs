//! The open-loop reader: requests leave on a fixed schedule whether or not
//! earlier answers are back, over one pipelined connection, from one thread.
//!
//! Each request is timed **from the instant it was due**, not from when it
//! was actually sent: if the generator (or the connection) stalls, the wait
//! that stall imposes on the requests behind it is part of their latency. How
//! late the generator itself ran is reported beside it (`late_share`), and a
//! stall never shrinks the sample — every scheduled request is sent, and one
//! never answered counts as failed.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use cole_primitives::{Address, ColeError, Result};
use cole_protocol::{read_frame, write_frame, Connection, Frame, Message};

/// Points of a step's schedule at which the backlog is noted.
const CHECKPOINTS: usize = 5;
/// A request sent more than this after its due time counts as late.
pub const LATE: Duration = Duration::from_millis(1);
/// How long after the last send a step waits for outstanding answers.
const DRAIN: Duration = Duration::from_secs(5);

/// One read request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Ask {
    Get(Address),
    Prov { addr: Address, lo: u64, hi: u64 },
}

/// An answer, tagged with the id of the request it answers.
pub struct Reply {
    pub id: u64,
    pub msg: Message,
}

/// A pipelined connection: answers come back in request order.
pub trait Wire {
    fn send(&mut self, id: u64, ask: &Ask) -> Result<()>;

    /// Waits up to `timeout` for the next answer.
    fn poll(&mut self, timeout: Duration) -> Result<Option<Reply>>;
}

/// [`Wire`] over any protocol connection (the in-process pipe, here).
pub struct FrameWire<C: Connection>(pub C);

impl<C: Connection> Wire for FrameWire<C> {
    fn send(&mut self, id: u64, ask: &Ask) -> Result<()> {
        let msg = match *ask {
            Ask::Get(addr) => Message::Get { addr },
            Ask::Prov { addr, lo, hi } => Message::ProvQuery {
                addr,
                blk_lower: lo,
                blk_upper: hi,
                at_height: None,
            },
        };
        write_frame(
            &mut self.0,
            &Frame {
                request_id: id,
                msg,
            },
        )
    }

    fn poll(&mut self, timeout: Duration) -> Result<Option<Reply>> {
        if !self.0.wait_readable(timeout)? {
            return Ok(None);
        }
        match read_frame(&mut self.0)? {
            Some(frame) => Ok(Some(Reply {
                id: frame.request_id,
                msg: frame.msg,
            })),
            None => Err(ColeError::InvalidState(
                "server closed the connection mid-step".into(),
            )),
        }
    }
}

/// Decides whether an answer is correct.
pub trait Judge {
    /// Called as a request leaves; the token comes back with its answer (the
    /// mixed workload stamps the chain height acknowledged so far).
    fn stamp(&mut self) -> u64 {
        0
    }

    /// `(correct, proof bytes)` for the answer `msg` to `ask`.
    fn judge(&mut self, ask: &Ask, stamp: u64, msg: Message) -> (bool, usize);
}

/// What one fixed-rate step measured.
pub struct Step {
    pub rate_per_s: f64,
    pub scheduled: u64,
    /// Latency from due time of every answered `get`, in completion order, µs.
    pub get_us: Vec<f64>,
    /// The same for provenance queries, `VerifyProv` included.
    pub prov_us: Vec<f64>,
    /// Wrong, refused or error answers, plus requests never answered.
    pub failed: u64,
    pub proof_bytes: u64,
    /// Requests that left more than [`LATE`] after they were due.
    pub sent_late: u64,
    /// Most requests outstanding at once.
    pub backlog_max: u64,
    /// Requests outstanding as each fifth of the schedule was sent.
    pub backlog_at: [u64; CHECKPOINTS],
    pub started: Instant,
    pub ended: Instant,
}

impl Step {
    pub fn completed(&self) -> u64 {
        (self.get_us.len() + self.prov_us.len()) as u64
    }

    pub fn elapsed_s(&self) -> f64 {
        self.ended.duration_since(self.started).as_secs_f64()
    }

    pub fn late_share(&self) -> f64 {
        self.sent_late as f64 / self.scheduled.max(1) as f64
    }

    /// A backlog that is larger at every checkpoint than at the one before
    /// and ends above a hundred requests: the server is not keeping up.
    pub fn backlog_grows(&self) -> bool {
        self.backlog_at.windows(2).all(|w| w[1] > w[0]) && self.backlog_at[CHECKPOINTS - 1] > 100
    }
}

struct Pending {
    id: u64,
    ask: Ask,
    due: Instant,
    stamp: u64,
}

/// Books the answer to the oldest outstanding request.
fn absorb<J: Judge>(step: &mut Step, pending: &mut VecDeque<Pending>, judge: &mut J, reply: Reply) {
    let arrived = Instant::now();
    match pending.pop_front() {
        Some(p) if p.id == reply.id => {
            // The judge verifies proofs: that time is the client's, and it
            // is inside the latency of a provenance query.
            let is_prov = matches!(p.ask, Ask::Prov { .. });
            let (ok, proof_bytes) = judge.judge(&p.ask, p.stamp, reply.msg);
            let end = if is_prov { Instant::now() } else { arrived };
            let lat = end.duration_since(p.due).as_secs_f64() * 1e6;
            if is_prov {
                step.prov_us.push(lat);
            } else {
                step.get_us.push(lat);
            }
            step.failed += u64::from(!ok);
            step.proof_bytes += proof_bytes as u64;
        }
        // An answer out of order: the stream can no longer be matched to
        // requests. The popped request is booked as unanswered below.
        Some(p) => pending.push_front(p),
        None => step.failed += 1,
    }
}

/// Sends `rate_per_s * duration` requests, one every `1 / rate_per_s`
/// seconds, polling for answers in between; then waits for the stragglers.
/// `first_id` keeps request ids unique across the steps of one connection;
/// `next` draws a request given the judge's stamp for it.
pub fn run_step<W: Wire, J: Judge>(
    wire: &mut W,
    judge: &mut J,
    rate_per_s: f64,
    duration: Duration,
    first_id: u64,
    mut next: impl FnMut(u64) -> Ask,
) -> Step {
    let scheduled = (rate_per_s * duration.as_secs_f64()).round() as u64;
    let interval = Duration::from_secs_f64(1.0 / rate_per_s);
    let started = Instant::now();
    let due_of = |n: u64| started + interval.mul_f64(n as f64);
    let mut step = Step {
        rate_per_s,
        scheduled,
        get_us: Vec::with_capacity(scheduled as usize),
        prov_us: Vec::new(),
        failed: 0,
        proof_bytes: 0,
        sent_late: 0,
        backlog_max: 0,
        backlog_at: [0; CHECKPOINTS],
        started,
        ended: started,
    };
    let mut pending: VecDeque<Pending> = VecDeque::new();
    let mut sent = 0u64;
    let mut broken = false;

    while !broken && (sent < scheduled || !pending.is_empty()) {
        if sent < scheduled && due_of(sent) <= Instant::now() {
            let stamp = judge.stamp();
            let ask = next(stamp);
            let id = first_id + sent;
            if wire.send(id, &ask).is_err() {
                break;
            }
            let due = due_of(sent);
            step.sent_late += u64::from(Instant::now().duration_since(due) > LATE);
            pending.push_back(Pending {
                id,
                ask,
                due,
                stamp,
            });
            sent += 1;
            step.backlog_max = step.backlog_max.max(pending.len() as u64);
            for (k, slot) in step.backlog_at.iter_mut().enumerate() {
                if sent == scheduled * (k as u64 + 1) / CHECKPOINTS as u64 {
                    *slot = pending.len() as u64;
                }
            }
        }
        // Until the next request is due (or, once all are sent, until the
        // drain deadline) the thread does nothing but take answers.
        let wait = if sent < scheduled {
            due_of(sent).saturating_duration_since(Instant::now())
        } else {
            let deadline = due_of(scheduled) + DRAIN;
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            left
        };
        match wire.poll(wait) {
            Ok(Some(reply)) => absorb(&mut step, &mut pending, judge, reply),
            Ok(None) => {}
            Err(_) => broken = true,
        }
    }
    // Scheduled but never sent (broken connection) or never answered.
    step.failed += (scheduled - sent) + pending.len() as u64;
    step.ended = Instant::now();
    step
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::percentile;

    /// A fake server with a fixed service time. Its connection stalls once:
    /// the send of request `stall_at` blocks for `stall` (a full socket
    /// buffer, a descheduled peer).
    struct FakeWire {
        service: Duration,
        stall_at: u64,
        stall: Duration,
        ready: VecDeque<(Instant, u64)>,
    }

    impl Wire for FakeWire {
        fn send(&mut self, id: u64, _ask: &Ask) -> Result<()> {
            if id == self.stall_at {
                std::thread::sleep(self.stall);
            }
            self.ready.push_back((Instant::now() + self.service, id));
            Ok(())
        }

        fn poll(&mut self, timeout: Duration) -> Result<Option<Reply>> {
            let Some(&(at, id)) = self.ready.front() else {
                std::thread::sleep(timeout);
                return Ok(None);
            };
            let now = Instant::now();
            if at > now {
                std::thread::sleep(timeout.min(at - now));
                if at > Instant::now() {
                    return Ok(None);
                }
            }
            self.ready.pop_front();
            Ok(Some(Reply {
                id,
                msg: Message::GetOk { value: None },
            }))
        }
    }

    struct AcceptAll;
    impl Judge for AcceptAll {
        fn judge(&mut self, _ask: &Ask, _stamp: u64, _msg: Message) -> (bool, usize) {
            (true, 0)
        }
    }

    fn step_with_stall(stall: Duration) -> Step {
        let mut wire = FakeWire {
            service: Duration::from_micros(200),
            stall_at: 100,
            stall,
            ready: VecDeque::new(),
        };
        run_step(
            &mut wire,
            &mut AcceptAll,
            2000.0,
            Duration::from_millis(200),
            0,
            |_| Ask::Get(Address::from_low_u64(1)),
        )
    }

    #[test]
    fn a_stall_inflates_latency_and_lateness_but_never_shrinks_the_sample() {
        let smooth = step_with_stall(Duration::ZERO);
        let stalled = step_with_stall(Duration::from_millis(60));
        // Same schedule, same number of samples: the stall is not hidden by
        // sending less.
        assert_eq!(smooth.scheduled, 400);
        assert_eq!(stalled.scheduled, 400);
        assert_eq!(stalled.completed(), 400);
        assert_eq!(smooth.completed(), 400);
        assert_eq!(stalled.failed + smooth.failed, 0);
        // 60 ms at 2000/s: about 120 requests fell due while the connection
        // was stuck, left late, and carry the wait in their latency.
        assert!(
            stalled.sent_late >= 60 && stalled.late_share() >= 0.15,
            "late {} of {}",
            stalled.sent_late,
            stalled.scheduled
        );
        assert!(
            smooth.late_share() < 0.05,
            "late share {}",
            smooth.late_share()
        );
        let (p99_stalled, p99_smooth) = (
            percentile(&stalled.get_us, 0.99),
            percentile(&smooth.get_us, 0.99),
        );
        assert!(
            p99_stalled >= 40_000.0,
            "p99 {p99_stalled} µs must carry most of the 60 ms stall"
        );
        assert!(p99_smooth < 20_000.0, "smooth p99 {p99_smooth} µs");
        assert!(stalled.backlog_max > smooth.backlog_max);
    }

    #[test]
    fn unanswered_requests_count_as_failed() {
        struct Deaf;
        impl Wire for Deaf {
            fn send(&mut self, id: u64, _ask: &Ask) -> Result<()> {
                if id >= 5 {
                    return Err(ColeError::InvalidState("connection reset".into()));
                }
                Ok(())
            }
            fn poll(&mut self, timeout: Duration) -> Result<Option<Reply>> {
                std::thread::sleep(timeout.min(Duration::from_millis(1)));
                Ok(None)
            }
        }
        let step = run_step(
            &mut Deaf,
            &mut AcceptAll,
            1000.0,
            Duration::from_millis(20),
            0,
            |_| Ask::Get(Address::from_low_u64(1)),
        );
        // Five were sent and never answered, fifteen never left: all failed.
        assert_eq!(step.scheduled, 20);
        assert_eq!(step.completed(), 0);
        assert_eq!(step.failed, 20);
    }

    #[test]
    fn growing_backlog_is_recognised() {
        let mut step = step_with_stall(Duration::ZERO);
        step.backlog_at = [10, 200, 400, 800, 1600];
        assert!(step.backlog_grows());
        step.backlog_at = [3, 2, 4, 1, 2];
        assert!(!step.backlog_grows());
        step.backlog_at = [1, 2, 3, 4, 5];
        assert!(
            !step.backlog_grows(),
            "a handful outstanding is not a backlog"
        );
    }
}

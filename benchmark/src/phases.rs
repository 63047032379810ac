//! Closed-loop read phases: one caller, the next request leaves when the
//! previous answer has been checked. The same loops drive an embedded engine
//! and a served one through the [`Reader`] trait, and every answer passes the
//! oracle before it counts.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use cole_primitives::{
    Address, AuthenticatedStorage, ColeError, Digest, Result, StateValue, VersionedValue,
};
use cole_protocol::Client;

use crate::loadgen::ReadGen;
use crate::model::Model;

/// A provenance answer whose proof has already been verified against
/// `hstate`, the state root that came with it.
pub struct ProvAnswer {
    pub height: u64,
    pub hstate: Digest,
    pub values: Vec<VersionedValue>,
    pub proof_bytes: usize,
}

/// Something reads can be sent to.
pub trait Reader {
    fn get(&mut self, addr: Address) -> Result<Option<StateValue>>;

    /// Provenance query *including* `VerifyProv`; an unverifiable answer is
    /// an error. `at` asks for a retained historical height.
    fn prov(&mut self, addr: Address, lo: u64, hi: u64, at: Option<u64>) -> Result<ProvAnswer>;
}

impl Reader for Client {
    fn get(&mut self, addr: Address) -> Result<Option<StateValue>> {
        Client::get(self, addr)
    }

    fn prov(&mut self, addr: Address, lo: u64, hi: u64, at: Option<u64>) -> Result<ProvAnswer> {
        let response = match at {
            None => self.prov_query_verified(addr, lo, hi)?,
            Some(height) => self.prov_query_at_verified(addr, lo, hi, height)?,
        };
        Ok(ProvAnswer {
            height: response.height,
            hstate: response.hstate,
            proof_bytes: response.proof.len(),
            values: response.values,
        })
    }
}

/// An engine in this process, read through the `AuthenticatedStorage` calls
/// a node would make. `hstate` is the last finalized block's digest.
pub struct Embedded<'a, E> {
    pub engine: &'a E,
    pub height: u64,
    pub hstate: Digest,
}

impl<E: AuthenticatedStorage> Reader for Embedded<'_, E> {
    fn get(&mut self, addr: Address) -> Result<Option<StateValue>> {
        self.engine.get(addr)
    }

    fn prov(&mut self, addr: Address, lo: u64, hi: u64, _at: Option<u64>) -> Result<ProvAnswer> {
        let result = self.engine.prov_query(addr, lo, hi)?;
        if !self
            .engine
            .verify_prov(addr, lo, hi, &result, self.hstate)?
        {
            return Err(ColeError::VerificationFailed(format!(
                "embedded proof for {addr:?} [{lo}, {hi}] does not verify"
            )));
        }
        Ok(ProvAnswer {
            height: self.height,
            hstate: self.hstate,
            proof_bytes: result.proof.len(),
            values: result.values,
        })
    }
}

/// The state roots the benchmark itself saw published, by height. A served
/// answer must carry the root of the height it claims.
pub type Anchors = HashMap<u64, Digest>;

/// Whether a provenance answer for `(addr, [lo, hi])` is what the model and
/// the known state roots say it must be (its proof is already verified).
pub fn prov_is_right(
    model: &Model,
    anchors: &Anchors,
    addr: Address,
    lo: u64,
    hi: u64,
    answer: &ProvAnswer,
) -> bool {
    anchors
        .get(&answer.height)
        .map_or(true, |h| *h == answer.hstate)
        && answer.values == model.range(addr, lo, hi)
}

/// The outcome of one measured phase.
#[derive(Default)]
pub struct Phase {
    /// Caller-observed latency per operation, in order, µs.
    pub lat_us: Vec<f64>,
    pub elapsed_s: f64,
    /// Errors, unverifiable proofs and answers the oracle rejects.
    pub failed: u64,
    /// Proof bytes of the first [`Phase::proofs`] provenance answers.
    pub proof_bytes: u64,
    /// Answers `proof_bytes` was summed over: a fixed-size head of the phase
    /// (see [`PROOF_SAMPLE`]), so that with one seed the mean repeats exactly
    /// however many queries the clock lets through.
    pub proofs: u64,
}

/// Provenance answers at the head of a phase whose proof sizes are averaged.
pub const PROOF_SAMPLE: u64 = 2000;

impl Phase {
    pub fn ops_per_s(&self) -> f64 {
        self.lat_us.len() as f64 / self.elapsed_s
    }
    pub fn proof_bytes_per_op(&self) -> f64 {
        self.proof_bytes as f64 / self.proofs.max(1) as f64
    }
}

/// Issues requests back to back for `budget`. Only `call` — the round trip
/// or engine call itself — is timed; drawing the request and checking the
/// answer against the oracle happen between timings.
fn closed_loop<Q, A>(
    budget: Duration,
    proof_sample: u64,
    mut next: impl FnMut() -> Q,
    mut call: impl FnMut(&Q) -> A,
    mut check: impl FnMut(&Q, A) -> (bool, usize),
) -> Phase {
    let mut phase = Phase::default();
    let started = Instant::now();
    while started.elapsed() < budget {
        let request = next();
        let sent = Instant::now();
        let answer = call(&request);
        phase.lat_us.push(sent.elapsed().as_secs_f64() * 1e6);
        let (ok, proof_bytes) = check(&request, answer);
        phase.failed += u64::from(!ok);
        if proof_bytes > 0 && phase.proofs < proof_sample {
            phase.proof_bytes += proof_bytes as u64;
            phase.proofs += 1;
        }
    }
    phase.elapsed_s = started.elapsed().as_secs_f64();
    phase
}

/// `get`s from `keys` for `budget`, each compared with the model's latest
/// value.
pub fn get_phase<R: Reader>(
    reader: &mut R,
    keys: &mut ReadGen<'_>,
    model: &Model,
    budget: Duration,
) -> Phase {
    closed_loop(
        budget,
        0,
        || keys.next_get(),
        |&addr| reader.get(addr),
        |&addr, got| (matches!(got, Ok(v) if v == model.latest(addr)), 0),
    )
}

/// Where a provenance phase may ask: the head, and the retained historical
/// heights every `historical_every`-th query (0 = never) is sent to instead.
pub struct ProvTargets<'a> {
    pub head: u64,
    pub retained: &'a [u64],
    pub historical_every: u64,
}

/// Verified provenance queries for `budget`; proof sizes are averaged over
/// the first `proof_sample` answers.
pub fn prov_phase<R: Reader>(
    reader: &mut R,
    keys: &mut ReadGen<'_>,
    model: &Model,
    anchors: &Anchors,
    targets: &ProvTargets<'_>,
    proof_sample: u64,
    budget: Duration,
) -> Phase {
    let mut n = 0u64;
    closed_loop(
        budget,
        proof_sample,
        || {
            n += 1;
            let every = targets.historical_every;
            let at = (every > 0 && n % every == 0 && !targets.retained.is_empty())
                .then(|| targets.retained[(n / every) as usize % targets.retained.len()]);
            let (addr, lo, hi) = keys.next_prov(at.unwrap_or(targets.head));
            (addr, lo, hi, at)
        },
        |&(addr, lo, hi, at)| reader.prov(addr, lo, hi, at),
        |&(addr, lo, hi, _), answer| match answer {
            Ok(answer) => (
                prov_is_right(model, anchors, addr, lo, hi, &answer),
                answer.proof_bytes,
            ),
            Err(_) => (false, 0),
        },
    )
}

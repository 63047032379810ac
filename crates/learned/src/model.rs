//! ε-bounded piecewise linear models (Definition 1 of the paper).

use cole_primitives::{ColeError, CompoundKey, KeyNum, Result, COMPOUND_KEY_LEN, MODEL_LEN};

/// Offset of the serialized `kmin` within a model's [`MODEL_LEN`] bytes,
/// after the slope and the intercept.
pub(crate) const MODEL_KMIN_OFFSET: usize = 16;

/// An ε-bounded piecewise linear model `M = ⟨sl, ic, kmin, pmax⟩`.
///
/// The model covers keys `≥ kmin` up to the first key of the next model. For
/// a covered key `K`, the predicted position is
/// `min(ic + sl · (K − kmin), pmax)`, which is within ε of the true position
/// of `K` in the file the model indexes.
///
/// The prediction anchors the linear function at `kmin` (rather than at the
/// numeric origin) so that the floating-point evaluation only ever sees the
/// small delta `K − kmin`, keeping the ε guarantee meaningful even though
/// compound keys are 224-bit integers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Model {
    slope: f64,
    intercept: f64,
    kmin: CompoundKey,
    pmax: u64,
}

impl Model {
    /// Creates a model from its components.
    #[must_use]
    pub fn new(slope: f64, intercept: f64, kmin: CompoundKey, pmax: u64) -> Self {
        Model {
            slope,
            intercept,
            kmin,
            pmax,
        }
    }

    /// The first key covered by the model.
    #[must_use]
    pub fn kmin(&self) -> CompoundKey {
        self.kmin
    }

    /// The last position covered by the model.
    #[must_use]
    pub fn pmax(&self) -> u64 {
        self.pmax
    }

    /// The slope of the linear model.
    #[must_use]
    pub fn slope(&self) -> f64 {
        self.slope
    }

    /// The intercept of the linear model (the predicted position of `kmin`).
    #[must_use]
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// Returns `true` if `key` is at or beyond the first key of the model.
    #[must_use]
    pub fn covers(&self, key: KeyNum) -> bool {
        key >= KeyNum::from(self.kmin)
    }

    /// Predicts the position of `key`:
    /// `min(ic + sl · (key − kmin), pmax)`, clamped at zero.
    #[must_use]
    pub fn predict(&self, key: KeyNum) -> u64 {
        let delta = key.saturating_sub(KeyNum::from(self.kmin)).to_f64();
        let raw = self.intercept + self.slope * delta;
        let clamped = raw.max(0.0).min(self.pmax as f64);
        clamped.round() as u64
    }

    /// Serializes the model into [`MODEL_LEN`] bytes.
    #[must_use]
    pub fn to_bytes(&self) -> [u8; MODEL_LEN] {
        let mut out = [0u8; MODEL_LEN];
        out[0..8].copy_from_slice(&self.slope.to_le_bytes());
        out[8..16].copy_from_slice(&self.intercept.to_le_bytes());
        out[MODEL_KMIN_OFFSET..MODEL_KMIN_OFFSET + COMPOUND_KEY_LEN]
            .copy_from_slice(&self.kmin.to_bytes());
        out[44..52].copy_from_slice(&self.pmax.to_le_bytes());
        out
    }

    /// Deserializes a model previously produced by [`Model::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`ColeError::InvalidEncoding`] if the slice has the wrong
    /// length.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        if bytes.len() != MODEL_LEN {
            return Err(ColeError::InvalidEncoding(format!(
                "model must be {MODEL_LEN} bytes, got {}",
                bytes.len()
            )));
        }
        let mut f = [0u8; 8];
        f.copy_from_slice(&bytes[0..8]);
        let slope = f64::from_le_bytes(f);
        f.copy_from_slice(&bytes[8..16]);
        let intercept = f64::from_le_bytes(f);
        let kmin = CompoundKey::from_bytes(
            &bytes[MODEL_KMIN_OFFSET..MODEL_KMIN_OFFSET + COMPOUND_KEY_LEN],
        )?;
        f.copy_from_slice(&bytes[44..52]);
        let pmax = u64::from_le_bytes(f);
        Ok(Model {
            slope,
            intercept,
            kmin,
            pmax,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cole_primitives::Address;

    fn key(addr: u64, blk: u64) -> CompoundKey {
        CompoundKey::new(Address::from_low_u64(addr), blk)
    }

    #[test]
    fn serialization_roundtrip() {
        let m = Model::new(0.25, 100.0, key(3, 7), 555);
        let restored = Model::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(restored, m);
        assert!(Model::from_bytes(&[0u8; 10]).is_err());
    }

    #[test]
    fn predict_is_linear_in_block_height() {
        // Keys differing only in block height have delta == height difference.
        let m = Model::new(1.0, 10.0, key(5, 0), 1000);
        assert_eq!(m.predict(key(5, 0).into()), 10);
        assert_eq!(m.predict(key(5, 50).into()), 60);
    }

    #[test]
    fn predict_clamps_to_pmax_and_zero() {
        let m = Model::new(2.0, 0.0, key(1, 0), 10);
        assert_eq!(m.predict(key(1, 1_000_000).into()), 10);
        let neg = Model::new(-5.0, 2.0, key(1, 0), 10);
        assert_eq!(neg.predict(key(1, 100).into()), 0);
    }

    #[test]
    fn covers_is_a_lower_bound_check() {
        let m = Model::new(0.0, 0.0, key(4, 2), 0);
        assert!(m.covers(key(4, 2).into()));
        assert!(m.covers(key(9, 0).into()));
        assert!(!m.covers(key(4, 1).into()));
        assert!(!m.covers(key(3, 9).into()));
    }
}

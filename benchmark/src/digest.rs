//! Bit-exact output digest: equal digests mean bit-identical outputs.

/// FNV-1a over the little-endian bytes of every value fed in, in order.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_and_bit_sensitive() {
        let mut a = Digest::default();
        a.u64(1);
        a.f64(0.5);
        let mut b = Digest::default();
        b.f64(0.5);
        b.u64(1);
        assert_ne!(a.value(), b.value());
        let mut c = Digest::default();
        c.f64(0.0);
        let mut d = Digest::default();
        d.f64(-0.0);
        assert_ne!(c.value(), d.value());
    }
}

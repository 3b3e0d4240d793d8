//! The one reader of the binary wire formats: a little-endian cursor over
//! the front of a byte slice.
//!
//! Every binary smartsock layout — the `[type, size, data]` frames, the
//! status, network and security records, the request, reply, outcome and
//! stats headers — is pinned little-endian (§3.5.1, Tables 3.5/3.6). The
//! accessors are therefore only `u8`, raw byte arrays and `_le` numbers:
//! no big- or native-endian read exists to be called by mistake. Writers
//! append `to_le_bytes()` to a `Vec<u8>`, and the crate's
//! `big_endian_bytes`/`host_endian_bytes` lints catch the other spellings.
//!
//! A read past the end panics. Every decoder checks
//! [`LeCursor::remaining`] first and returns `ProtoError::Truncated`, so a
//! panic here is a decoder's missing length check, never bad input.

/// Little-endian reads that consume the front of a `&[u8]`.
pub trait LeCursor {
    /// How many bytes are left to read.
    fn remaining(&self) -> usize;

    /// The next `N` bytes, as they are on the wire.
    fn get_array<const N: usize>(&mut self) -> [u8; N];

    fn get_u8(&mut self) -> u8 {
        let [b] = self.get_array();
        b
    }

    fn get_u16_le(&mut self) -> u16 {
        u16::from_le_bytes(self.get_array())
    }

    fn get_u32_le(&mut self) -> u32 {
        u32::from_le_bytes(self.get_array())
    }

    fn get_u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.get_array())
    }

    fn get_i32_le(&mut self) -> i32 {
        i32::from_le_bytes(self.get_array())
    }

    fn get_f32_le(&mut self) -> f32 {
        f32::from_le_bytes(self.get_array())
    }

    fn get_f64_le(&mut self) -> f64 {
        f64::from_le_bytes(self.get_array())
    }
}

impl LeCursor for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn get_array<const N: usize>(&mut self) -> [u8; N] {
        let slice: &[u8] = self;
        let (head, rest) = slice
            .split_first_chunk::<N>()
            .expect("invariant: a decoder checks remaining() before it reads");
        *self = rest;
        *head
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_consume_the_front_little_endian() {
        let mut wire = Vec::new();
        wire.push(7u8);
        wire.extend_from_slice(&300u16.to_le_bytes());
        wire.extend_from_slice(&70_000u32.to_le_bytes());
        wire.extend_from_slice(&(1u64 << 40).to_le_bytes());
        wire.extend_from_slice(&(-5i32).to_le_bytes());
        wire.extend_from_slice(&1.5f32.to_le_bytes());
        wire.extend_from_slice(&(-2.25f64).to_le_bytes());
        wire.extend_from_slice(b"tail");
        let mut cur = &wire[..];
        assert_eq!(cur.get_u8(), 7);
        assert_eq!(cur.get_u16_le(), 300);
        assert_eq!(cur.get_u32_le(), 70_000);
        assert_eq!(cur.get_u64_le(), 1 << 40);
        assert_eq!(cur.get_i32_le(), -5);
        assert_eq!(cur.get_f32_le(), 1.5);
        assert_eq!(cur.get_f64_le(), -2.25);
        assert_eq!(cur.remaining(), 4);
        assert_eq!(&cur.get_array::<4>(), b"tail");
        assert_eq!(cur.remaining(), 0);
        assert_eq!(wire.len(), 1 + 2 + 4 + 8 + 4 + 4 + 8 + 4, "the buffer itself is untouched");
    }

    #[test]
    #[should_panic(expected = "remaining()")]
    fn reading_past_the_end_panics() {
        let _ = (&[1u8][..]).get_u32_le();
    }
}

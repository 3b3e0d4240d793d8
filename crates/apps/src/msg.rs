//! Application-level message formats for the matmul and massd protocols.
//!
//! Headers ride in the real-byte part of a [`smartsock_net::Payload`];
//! bulk matrix/file content is carried as virtual bytes (its values are
//! irrelevant to the experiments, only its size is). Like every binary
//! smartsock format they are little-endian: written with `to_le_bytes`,
//! read through `smartsock_proto`'s [`LeCursor`].

use smartsock_proto::LeCursor;

/// One application message header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AppMsg {
    /// Master → worker: preload the input blocks this worker will need
    /// (the bulk bytes ride as virtual payload).
    MatInput { tag: u32 },
    /// Worker → master: input preload received.
    MatInputAck { tag: u32 },
    /// Master → worker: multiply one `r × c` output block of an `n × n`
    /// problem.
    MatTask { tag: u32, r: u32, c: u32, n: u32 },
    /// Worker → master: block done (result bytes ride as virtual payload).
    MatResult { tag: u32 },
    /// massd client → file server: send one block of `bytes`.
    BlockRequest { tag: u32, bytes: u32 },
    /// File server → client: the block (virtual payload).
    BlockData { tag: u32 },
}

const K_MAT_INPUT: u8 = 1;
const K_MAT_INPUT_ACK: u8 = 2;
const K_MAT_TASK: u8 = 3;
const K_MAT_RESULT: u8 = 4;
const K_BLOCK_REQUEST: u8 = 10;
const K_BLOCK_DATA: u8 = 11;

impl AppMsg {
    pub fn encode(&self) -> Vec<u8> {
        let (kind, fields) = match *self {
            AppMsg::MatInput { tag } => (K_MAT_INPUT, &[tag][..]),
            AppMsg::MatInputAck { tag } => (K_MAT_INPUT_ACK, &[tag][..]),
            AppMsg::MatTask { tag, r, c, n } => (K_MAT_TASK, &[tag, r, c, n][..]),
            AppMsg::MatResult { tag } => (K_MAT_RESULT, &[tag][..]),
            AppMsg::BlockRequest { tag, bytes } => (K_BLOCK_REQUEST, &[tag, bytes][..]),
            AppMsg::BlockData { tag } => (K_BLOCK_DATA, &[tag][..]),
        };
        let mut out = Vec::with_capacity(17);
        out.push(kind);
        for field in fields {
            out.extend_from_slice(&field.to_le_bytes());
        }
        out
    }

    pub fn decode(mut buf: &[u8]) -> Option<AppMsg> {
        if buf.remaining() < 5 {
            return None;
        }
        let kind = buf.get_u8();
        let tag = buf.get_u32_le();
        Some(match kind {
            K_MAT_INPUT => AppMsg::MatInput { tag },
            K_MAT_INPUT_ACK => AppMsg::MatInputAck { tag },
            K_MAT_TASK => {
                if buf.remaining() < 12 {
                    return None;
                }
                AppMsg::MatTask {
                    tag,
                    r: buf.get_u32_le(),
                    c: buf.get_u32_le(),
                    n: buf.get_u32_le(),
                }
            }
            K_MAT_RESULT => AppMsg::MatResult { tag },
            K_BLOCK_REQUEST => {
                if buf.remaining() < 4 {
                    return None;
                }
                AppMsg::BlockRequest { tag, bytes: buf.get_u32_le() }
            }
            K_BLOCK_DATA => AppMsg::BlockData { tag },
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EVERY_VARIANT: [AppMsg; 6] = [
        AppMsg::MatInput { tag: 7 },
        AppMsg::MatInputAck { tag: 7 },
        AppMsg::MatTask { tag: 9, r: 600, c: 300, n: 1500 },
        AppMsg::MatResult { tag: 9 },
        AppMsg::BlockRequest { tag: 1, bytes: 102_400 },
        AppMsg::BlockData { tag: 1 },
    ];

    #[test]
    fn all_variants_roundtrip() {
        for msg in EVERY_VARIANT {
            let wire = msg.encode();
            assert_eq!(AppMsg::decode(&wire), Some(msg));
        }
    }

    #[test]
    fn every_strict_prefix_decodes_to_none() {
        for msg in EVERY_VARIANT {
            let wire = msg.encode();
            for cut in 0..wire.len() {
                assert_eq!(AppMsg::decode(&wire[..cut]), None, "{msg:?} cut at {cut}");
            }
        }
    }

    #[test]
    fn garbage_decodes_to_none() {
        assert_eq!(AppMsg::decode(&[]), None);
        assert_eq!(AppMsg::decode(&[99, 0, 0, 0, 0]), None);
        assert_eq!(AppMsg::decode(&[K_MAT_TASK, 0, 0, 0, 0, 1]), None);
        assert_eq!(AppMsg::decode(&[K_BLOCK_REQUEST, 0, 0, 0, 0]), None);
    }
}

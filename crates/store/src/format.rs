//! Fixed-width record encodings, the one checksum and the manifest seal.
//!
//! Records are little-endian `u32` fields, no padding, no varints: the
//! reader computes a record's file offset by multiplication, and a block of
//! records can be verified by hashing raw bytes. Block sizes elsewhere in
//! the crate are chosen as multiples of these record sizes so a record
//! never straddles a block boundary.
//!
//! Every checksum in the workspace is XXH64 ([`xxh64`]): store blocks and
//! files, and the [`seal`] that closes each text manifest (the store's
//! `MANIFEST`, a model bundle's `BUNDLE`, a training checkpoint's
//! `manifest.txt`).

use rmpi_kg::{EntityId, RelationId, Triple};

/// Bytes per forward record: `(head, relation, tail)`.
pub const FWD_RECORD_BYTES: usize = 12;

/// Bytes per inverse record: `(tail, relation, head, fwd_idx)`.
pub const INV_RECORD_BYTES: usize = 16;

/// Forward records per checksum/cache block (× 12 bytes ≈ 64 KiB).
///
/// Shared by the builder (per-block checksum table in the manifest) and the
/// reader (block cache + cache-fill verification): both sides must agree on
/// block geometry or the sums are meaningless.
pub const FWD_BLOCK_RECORDS: u64 = 5461;

/// Inverse records per checksum/cache block (× 16 bytes = 64 KiB).
pub const INV_BLOCK_RECORDS: u64 = 4096;

/// Bytes per forward block (65 532).
pub const FWD_BLOCK_BYTES: u64 = FWD_BLOCK_RECORDS * FWD_RECORD_BYTES as u64;

/// Bytes per inverse block (65 536).
pub const INV_BLOCK_BYTES: u64 = INV_BLOCK_RECORDS * INV_RECORD_BYTES as u64;

/// Encode a forward record.
#[inline]
pub(crate) fn encode_fwd(t: Triple, out: &mut [u8; FWD_RECORD_BYTES]) {
    out[0..4].copy_from_slice(&t.head.0.to_le_bytes());
    out[4..8].copy_from_slice(&t.relation.0.to_le_bytes());
    out[8..12].copy_from_slice(&t.tail.0.to_le_bytes());
}

/// Decode a forward record.
#[inline]
pub(crate) fn decode_fwd(b: &[u8]) -> Triple {
    debug_assert!(b.len() >= FWD_RECORD_BYTES);
    Triple {
        head: EntityId(u32::from_le_bytes([b[0], b[1], b[2], b[3]])),
        relation: RelationId(u32::from_le_bytes([b[4], b[5], b[6], b[7]])),
        tail: EntityId(u32::from_le_bytes([b[8], b[9], b[10], b[11]])),
    }
}

/// Encode an inverse record. `fwd_idx` is the global index of the forward
/// record this edge mirrors (the triple index).
#[inline]
pub(crate) fn encode_inv(
    tail: EntityId,
    rel: RelationId,
    head: EntityId,
    fwd_idx: u32,
    out: &mut [u8; INV_RECORD_BYTES],
) {
    out[0..4].copy_from_slice(&tail.0.to_le_bytes());
    out[4..8].copy_from_slice(&rel.0.to_le_bytes());
    out[8..12].copy_from_slice(&head.0.to_le_bytes());
    out[12..16].copy_from_slice(&fwd_idx.to_le_bytes());
}

/// Decode an inverse record as `(tail, relation, head, fwd_idx)`.
#[inline]
pub(crate) fn decode_inv(b: &[u8]) -> (EntityId, RelationId, EntityId, u32) {
    debug_assert!(b.len() >= INV_RECORD_BYTES);
    (
        EntityId(u32::from_le_bytes([b[0], b[1], b[2], b[3]])),
        RelationId(u32::from_le_bytes([b[4], b[5], b[6], b[7]])),
        EntityId(u32::from_le_bytes([b[8], b[9], b[10], b[11]])),
        u32::from_le_bytes([b[12], b[13], b[14], b[15]]),
    )
}

// The XXH64 primes (xxHash spec, "XXH64 algorithm description").
const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;
const P4: u64 = 0x85eb_ca77_c2b2_ae63;
const P5: u64 = 0x27d4_eb2f_1656_67c5;

/// Bytes XXH64 consumes per stripe: four 8-byte lanes.
const STRIPE: usize = 32;

#[inline(always)]
fn lane(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8 bytes"))
}

#[inline(always)]
fn xxh_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(P2)).rotate_left(31).wrapping_mul(P1)
}

#[inline(always)]
fn xxh_merge(acc: u64, v: u64) -> u64 {
    (acc ^ xxh_round(0, v)).wrapping_mul(P1).wrapping_add(P4)
}

/// Incremental XXH64 hasher, seed 0 (the xxHash spec's `XXH64`). Four
/// independent lanes per 32-byte stripe instead of one multiply per byte:
/// a 64 KiB block hashes in about 7 µs, which is why store manifests use it.
/// Any split of the input into `update` calls gives the one-shot digest.
#[derive(Clone, Debug)]
pub struct Xxh64 {
    acc: [u64; 4],
    /// Bytes of an unfinished stripe (the first `buf_len` are valid).
    buf: [u8; STRIPE],
    buf_len: usize,
    total: u64,
}

impl Xxh64 {
    /// A fresh hasher with seed 0.
    pub fn new() -> Self {
        Xxh64 {
            acc: [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()],
            buf: [0; STRIPE],
            buf_len: 0,
            total: 0,
        }
    }

    #[inline(always)]
    fn stripe(acc: &mut [u64; 4], s: &[u8]) {
        acc[0] = xxh_round(acc[0], lane(&s[0..]));
        acc[1] = xxh_round(acc[1], lane(&s[8..]));
        acc[2] = xxh_round(acc[2], lane(&s[16..]));
        acc[3] = xxh_round(acc[3], lane(&s[24..]));
    }

    /// Absorb bytes.
    #[inline]
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.total += bytes.len() as u64;
        if self.buf_len > 0 {
            let take = (STRIPE - self.buf_len).min(bytes.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&bytes[..take]);
            self.buf_len += take;
            bytes = &bytes[take..];
            if self.buf_len < STRIPE {
                return;
            }
            Self::stripe(&mut self.acc, &self.buf);
            self.buf_len = 0;
        }
        let mut stripes = bytes.chunks_exact(STRIPE);
        let mut acc = self.acc;
        for s in &mut stripes {
            Self::stripe(&mut acc, s);
        }
        self.acc = acc;
        let rest = stripes.remainder();
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        let [a, b, c, d] = self.acc;
        let mut h = if self.total >= STRIPE as u64 {
            let h = a
                .rotate_left(1)
                .wrapping_add(b.rotate_left(7))
                .wrapping_add(c.rotate_left(12))
                .wrapping_add(d.rotate_left(18));
            [a, b, c, d].into_iter().fold(h, xxh_merge)
        } else {
            P5
        };
        h = h.wrapping_add(self.total);
        let mut tail = &self.buf[..self.buf_len];
        while tail.len() >= 8 {
            h = (h ^ xxh_round(0, lane(tail))).rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
            tail = &tail[8..];
        }
        if tail.len() >= 4 {
            let w = u32::from_le_bytes(tail[..4].try_into().expect("4 bytes")) as u64;
            h = (h ^ w.wrapping_mul(P1)).rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
            tail = &tail[4..];
        }
        for &byte in tail {
            h = (h ^ (byte as u64).wrapping_mul(P5)).rotate_left(11).wrapping_mul(P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

impl Default for Xxh64 {
    fn default() -> Self {
        Xxh64::new()
    }
}

/// One-shot XXH64 (seed 0) of a byte slice.
pub fn xxh64(bytes: &[u8]) -> u64 {
    let mut h = Xxh64::new();
    h.update(bytes);
    h.finish()
}

/// Close a text manifest: append `sum <xxh64 of every byte of body>` and
/// `end`. `body` must be empty or end with a newline.
pub fn seal(body: &mut String) {
    let sum = xxh64(body.as_bytes());
    body.push_str(&format!("sum {sum:016x}\nend\n"));
}

/// Check the seal [`seal`] wrote and return the body above it. The last two
/// lines must be exactly `sum <16 lowercase hex digits>` and `end`, and the
/// sum must be the XXH64 of every byte before the `sum` line, so a flipped
/// bit anywhere in the text, the seal included, is refused. On failure:
/// the 1-based line at fault and what is wrong with it.
pub fn unseal(text: &[u8]) -> Result<&[u8], (usize, String)> {
    let lines = |b: &[u8]| b.iter().filter(|&&c| c == b'\n').count();
    let Some(above_end) =
        text.strip_suffix(b"end\n").filter(|r| r.is_empty() || r.ends_with(b"\n"))
    else {
        return Err((lines(text).max(1), "missing `end` (truncated manifest)".into()));
    };
    let sum_at = above_end[..above_end.len().saturating_sub(1)]
        .iter()
        .rposition(|&c| c == b'\n')
        .map_or(0, |i| i + 1);
    let (body, sum_line) = above_end.split_at(sum_at);
    let line = lines(body) + 1;
    let Some(recorded) = sum_line.strip_prefix(b"sum ").and_then(|r| r.strip_suffix(b"\n")) else {
        return Err((line, "manifest missing `sum` self-checksum line".into()));
    };
    let computed = format!("{:016x}", xxh64(body));
    if recorded != computed.as_bytes() {
        let recorded = String::from_utf8_lossy(recorded);
        return Err((
            line,
            format!("manifest self-checksum mismatch: recorded {recorded}, computed {computed} — the manifest was altered after it was written"),
        ));
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fwd_roundtrip() {
        let t = Triple::new(7u32, 3u32, 1_000_000u32);
        let mut buf = [0u8; FWD_RECORD_BYTES];
        encode_fwd(t, &mut buf);
        assert_eq!(decode_fwd(&buf), t);
    }

    #[test]
    fn inv_roundtrip() {
        let mut buf = [0u8; INV_RECORD_BYTES];
        encode_inv(EntityId(9), RelationId(2), EntityId(4), 77, &mut buf);
        assert_eq!(decode_inv(&buf), (EntityId(9), RelationId(2), EntityId(4), 77));
    }

    #[test]
    fn unseal_returns_the_body_and_refuses_every_single_bit_flip() {
        let mut text = String::from("kind demo\nvalue 42\n");
        seal(&mut text);
        assert_eq!(unseal(text.as_bytes()).unwrap(), b"kind demo\nvalue 42\n");
        let mut empty = String::new();
        seal(&mut empty);
        assert_eq!(unseal(empty.as_bytes()).unwrap(), b"");
        for at in 0..text.len() {
            for bit in 0..8 {
                let mut flipped = text.clone().into_bytes();
                flipped[at] ^= 1 << bit;
                assert!(unseal(&flipped).is_err(), "byte {at} bit {bit}");
            }
        }
        // the line above `end` is where the `sum` line belongs
        let (line, message) = unseal(b"kind demo\nend\n").unwrap_err();
        assert_eq!(line, 1);
        assert!(message.contains("missing `sum`"), "{message}");
        let cut = text.strip_suffix("end\n").unwrap();
        assert!(unseal(cut.as_bytes()).unwrap_err().1.contains("truncated"));
    }

    #[test]
    fn xxh64_known_vectors() {
        // Reference XXH64 values, seed 0.
        assert_eq!(xxh64(b""), 0xef46_db37_51d8_e999);
        assert_eq!(xxh64(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(xxh64(b"abc"), 0x44bc_2cf5_ad77_0999);
    }

    #[test]
    fn xxh64_streaming_matches_oneshot_at_every_split() {
        // 100 bytes: three full stripes plus a 4-byte tail, so the splits
        // cross the stripe buffer and the 8/4/1-byte tail paths.
        let data: Vec<u8> = (0..100u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in [0, 1, 3, 4, 7, 8, 13, 31, 32, 33, 63, 64, 65, 100] {
            let want = xxh64(&data[..len]);
            for split in 0..=len {
                let mut h = Xxh64::new();
                h.update(&data[..split]);
                h.update(&data[split..len]);
                assert_eq!(h.finish(), want, "len {len} split at {split}");
            }
        }
        let mut bytewise = Xxh64::new();
        for b in &data {
            bytewise.update(std::slice::from_ref(b));
        }
        assert_eq!(bytewise.finish(), xxh64(&data));
    }
}

//! CRC-32 (IEEE 802.3, polynomial `0xEDB88320`), table-driven.
//!
//! Every WAL record and snapshot carries a CRC so torn writes and bit flips
//! are *detected* rather than replayed. In-tree because the container has no
//! registry access; the byte-at-a-time table walk is plenty for log append
//! rates (the perf ledger's `store.append_us` measures it).

use std::sync::OnceLock;

const POLY: u32 = 0xEDB8_8320;

fn table() -> &'static [u32; 256] {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            let mut crc = i as u32;
            let mut k = 0;
            while k < 8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
                k += 1;
            }
            *slot = crc;
        }
        t
    })
}

/// The CRC-32 checksum of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = table();
    let mut crc = !0u32;
    for &b in bytes {
        let idx = ((crc ^ b as u32) & 0xff) as usize;
        // The index is masked to 0..=255, so the fallback is unreachable;
        // `.get` keeps the recovery path free of panicking indexing.
        crc = (crc >> 8) ^ t.get(idx).copied().unwrap_or(0);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"a wal record payload".to_vec();
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), clean, "flip at {byte}:{bit} undetected");
            }
        }
    }
}

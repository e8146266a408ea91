//! The portable path: zlib's braided table CRC in safe Rust. It is what
//! every CPU without the folding kernel runs, and what the kernel hands
//! input shorter than its threshold and its tail to.

// CRC-32 (IEEE 802.3), braided as zlib does it. `T[j][b]` is the CRC
// register after byte `b` followed by `j` zero bytes. A word step folds
// eight bytes into the register with eight independent lookups: byte
// `k` of the word has `7 - k` bytes after it, so it takes `T[7 - k]`.
// That step is one long dependency chain, each word waiting for the
// last. Long input is therefore cut into blocks of `BRAIDS` words, and
// word `i` of every block goes to lane `i`: `BRAIDS` independent CRCs,
// each of which skips the other lanes' words as zero bytes — byte `k`
// of a lane's word has `BLOCK - 1 - k` bytes before the lane's next
// word, so it takes `T[BLOCK - 1 - k]`. At the last block the lanes
// fold into one CRC through the word step; linearity makes that the
// CRC of the whole input. Only `T[0..8]` (`WORD_TABLES`) and
// `T[BLOCK - 8..BLOCK]` (`BRAID_TABLES`) are kept, built at compile
// time so the crate stays dependency-free.

/// Independent CRCs the braided loop runs side by side.
const BRAIDS: usize = 4;
/// Bytes of one braid block: one 8-byte word per lane.
const BLOCK: usize = 8 * BRAIDS;

/// `T[first..first + 8]`.
const fn crc_tables(first: usize) -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        // Byte `b`, then zero bytes: `crc` is `T[j][b]` after step `j`.
        let mut crc = b as u32;
        let mut j = 0;
        while j < first + 8 {
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
                bit += 1;
            }
            if j >= first {
                tables[j - first][b] = crc;
            }
            j += 1;
        }
        b += 1;
    }
    tables
}

static WORD_TABLES: [[u32; 256]; 8] = crc_tables(0);
static BRAID_TABLES: [[u32; 256]; 8] = crc_tables(BLOCK - 8);

/// Folds `v` — an input word XOR the register — into a register of
/// zero; `tables[m]` is `T[j + m]`, which also steps over the `j` zero
/// bytes behind the word.
#[inline(always)]
fn word_step(tables: &[[u32; 256]; 8], v: u64) -> u32 {
    let byte = |k: usize| (v >> (8 * k)) as u8 as usize;
    (0..8).fold(0, |acc, k| acc ^ tables[7 - k][byte(k)])
}

/// CRC-32 (IEEE) over `bytes`, continuing from `seed` (pass `0` to
/// start a fresh checksum).
pub(crate) fn crc32(seed: u32, bytes: &[u8]) -> u32 {
    let mut crc = !seed;
    let mut rest = bytes;
    // Shorter input — a frame head, a tiny record — is not worth
    // braiding: it takes the word step only.
    if bytes.len() >= 2 * BLOCK {
        let (blocks, tail) = bytes.as_chunks::<BLOCK>();
        let (last, braided) = blocks.split_last().expect("two blocks or more");
        let mut lanes = [0u32; BRAIDS];
        lanes[0] = crc;
        for block in braided {
            for (lane, w) in lanes.iter_mut().zip(block.as_chunks::<8>().0) {
                *lane = word_step(&BRAID_TABLES, u64::from_le_bytes(*w) ^ u64::from(*lane));
            }
        }
        crc = 0;
        for (lane, w) in lanes.iter().zip(last.as_chunks::<8>().0) {
            crc = word_step(&WORD_TABLES, u64::from_le_bytes(*w) ^ u64::from(crc ^ lane));
        }
        rest = tail;
    }
    let (words, tail) = rest.as_chunks::<8>();
    for w in words {
        crc = word_step(&WORD_TABLES, u64::from_le_bytes(*w) ^ u64::from(crc));
    }
    for &b in tail {
        crc = WORD_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

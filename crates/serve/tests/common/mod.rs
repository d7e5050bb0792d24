//! Seeded input generation shared by the framing property tests.

use std::io::{BufRead, Read};

/// A deterministic byte mixer (splitmix64) so each proptest case derives
/// its input and read-split schedule from one sampled seed.
pub struct Mix(pub u64);

impl Mix {
    /// The next mixed word.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..bound` (`0` when `bound` is 0).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

/// A reader that returns at most `sizes[k]` bytes per call (cycling), so
/// lines and payloads land split across reads at seed-chosen points.
pub struct Dribble {
    data: Vec<u8>,
    /// How many bytes the consumer has taken so far.
    pub pos: usize,
    sizes: Vec<usize>,
    k: usize,
}

impl Dribble {
    /// A reader over `data` that cycles through the read sizes `sizes`.
    pub fn new(data: Vec<u8>, sizes: Vec<usize>) -> Dribble {
        Dribble {
            data,
            pos: 0,
            sizes,
            k: 0,
        }
    }

    fn window(&mut self) -> usize {
        let size = self.sizes[self.k % self.sizes.len()].max(1);
        self.k += 1;
        size.min(self.data.len() - self.pos)
    }
}

impl Read for Dribble {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let take = self.window().min(buf.len());
        buf[..take].copy_from_slice(&self.data[self.pos..self.pos + take]);
        self.pos += take;
        Ok(take)
    }
}

impl BufRead for Dribble {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        let take = self.window();
        Ok(&self.data[self.pos..self.pos + take])
    }

    fn consume(&mut self, amt: usize) {
        self.pos += amt;
    }
}

/// A seed-chosen read-split schedule of 1..=5 bytes per call.
pub fn read_splits(mix: &mut Mix) -> Vec<usize> {
    (0..8).map(|_| 1 + mix.below(5) as usize).collect()
}

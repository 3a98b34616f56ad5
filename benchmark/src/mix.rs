//! Seeded inputs: a small deterministic RNG, statement shuffling, and the
//! `serve_inline` request mix.

/// SplitMix64 — enough randomness for input generation, and the same
/// stream on every platform for a given seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_2017_0000_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// `.bench` text with its statements in a seeded order (the reader is
/// order-insensitive, and the service canonicalizes the order away).
pub fn shuffle_statements(text: &str, rng: &mut Rng) -> String {
    let mut lines: Vec<&str> = text
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .collect();
    rng.shuffle(&mut lines);
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

/// Distinct cache keys in one `serve_inline` pass: 200 requests, sized
/// so three passes fit a 25 s run on a 2-core machine.
pub const KEYS: usize = 50;
/// Distinct cache keys in a `--smoke` pass (120 requests).
pub const SMOKE_KEYS: usize = 30;
/// Requests per key: the first misses, the rest hit.
pub const REPEATS: usize = 4;
/// Closed-loop clients (one connection each).
pub const CLIENTS: usize = 2;

/// One distinct job: circuit index, flow and EDL overhead `c`.
#[derive(Debug, Clone, PartialEq)]
pub struct Key {
    pub circuit: usize,
    pub flow: &'static str,
    pub c: f64,
}

/// One request of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Index into [`Mix::keys`].
    pub key: usize,
    /// Which of the key's statement orders the request carries.
    pub variant: usize,
    /// Whether this is the key's first request (a cache miss).
    pub miss: bool,
}

/// The request mix: the keys, and one request list per client.
#[derive(Debug, Clone, PartialEq)]
pub struct Mix {
    pub keys: Vec<Key>,
    pub clients: Vec<Vec<Request>>,
}

/// Builds the mix of `keys` distinct keys over `circuits` inputs, split
/// grar 60 %, base 20 %, vl 20 %, spread round-robin over the circuits
/// with a distinct `c` each; every key is requested [`REPEATS`] times.
/// Keys are dealt to clients round-robin and a key's requests stay on
/// its client, so in a closed loop each key's first request completes
/// before its repeats are sent: exactly `keys` misses, whatever the
/// interleaving.
pub fn request_mix(seed: u64, keys: usize, circuits: usize) -> Mix {
    let mut rng = Rng::new(seed);
    let n_keys = keys;
    let keys: Vec<Key> = (0..n_keys)
        .map(|k| Key {
            circuit: k % circuits,
            flow: match k % 5 {
                0..=2 => "grar",
                3 => "base",
                _ => "vl",
            },
            // Distinct per key: k / circuits never repeats for one circuit.
            c: 0.5 + (k / circuits) as f64 / 64.0,
        })
        .collect();
    let clients = (0..CLIENTS)
        .map(|client| {
            let mut slots: Vec<usize> = (client..n_keys)
                .step_by(CLIENTS)
                .flat_map(|k| std::iter::repeat_n(k, REPEATS))
                .collect();
            rng.shuffle(&mut slots);
            let mut seen = vec![0usize; n_keys];
            slots
                .into_iter()
                .map(|key| {
                    let variant = seen[key];
                    seen[key] += 1;
                    Request {
                        key,
                        variant,
                        miss: variant == 0,
                    }
                })
                .collect()
        })
        .collect();
    Mix { keys, clients }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_has_exactly_900_hits_and_300_misses() {
        let mix = request_mix(1, 300, 4);
        let all: Vec<&Request> = mix.clients.iter().flatten().collect();
        assert_eq!(all.len(), 1200);
        assert_eq!(all.iter().filter(|r| r.miss).count(), 300);
        assert_eq!(all.iter().filter(|r| !r.miss).count(), 900);
        // Each key misses once, on one client, before its hits.
        for (k, _) in mix.keys.iter().enumerate() {
            let owners: Vec<usize> = (0..CLIENTS)
                .filter(|&c| mix.clients[c].iter().any(|r| r.key == k))
                .collect();
            assert_eq!(owners.len(), 1, "key {k} on one client");
            let first = mix.clients[owners[0]]
                .iter()
                .find(|r| r.key == k)
                .expect("key requested");
            assert!(first.miss);
        }
    }

    #[test]
    fn keys_are_distinct_and_flows_split_60_20_20() {
        for (keys, split) in [
            (300, (180, 60, 60)),
            (KEYS, (30, 10, 10)),
            (SMOKE_KEYS, (18, 6, 6)),
        ] {
            let mix = request_mix(1, keys, 4);
            for (i, a) in mix.keys.iter().enumerate() {
                for b in &mix.keys[i + 1..] {
                    assert_ne!(a, b);
                }
            }
            let count = |f: &str| mix.keys.iter().filter(|k| k.flow == f).count();
            assert_eq!((count("grar"), count("base"), count("vl")), split);
            let requests: usize = mix.clients.iter().map(Vec::len).sum();
            assert_eq!(requests, keys * REPEATS);
        }
    }

    #[test]
    fn same_seed_same_list_other_seed_other_order() {
        assert_eq!(request_mix(7, KEYS, 4), request_mix(7, KEYS, 4));
        let a = request_mix(7, KEYS, 4);
        let b = request_mix(8, KEYS, 4);
        assert_eq!(a.keys, b.keys);
        assert_ne!(a.clients, b.clients);
    }

    #[test]
    fn statement_shuffle_keeps_every_line() {
        let text = "INPUT(a)\nOUTPUT(z)\nq = DFF(a)\nz = NOT(q)\n";
        let shuffled = shuffle_statements(text, &mut Rng::new(3));
        let mut x: Vec<&str> = shuffled.lines().collect();
        let mut y: Vec<&str> = text.lines().collect();
        x.sort_unstable();
        y.sort_unstable();
        assert_eq!(x, y);
    }
}

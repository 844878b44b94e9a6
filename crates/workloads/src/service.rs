//! Client-transaction stream for the PTM-as-a-service frontend.
//!
//! Models a bank / erc20-style ledger: each transaction transfers an
//! amount between two accounts, or probes one account's balance
//! (read-only). Account ids are drawn from the Zipfian contention
//! generator in [`crate::zipf`], so skew and account-space size are the
//! two workload knobs the service bench sweeps.

use crate::common::Scale;
use crate::zipf::ZipfAccounts;
use ptm_types::rng::SplitMix64;

/// One client request as it arrives at the service frontend.
///
/// For transfers, `from` is debited and `to` credited by `amount`
/// (wrapping 32-bit ledger arithmetic, matching the simulator's word
/// size). For read-only probes, `to` and `amount` are ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClientTx {
    /// Client-assigned id; unique within a stream, echoed in receipts.
    pub id: u64,
    /// Debited account (or the probed account for read-only requests).
    pub from: u64,
    /// Credited account.
    pub to: u64,
    /// Transfer amount in ledger units.
    pub amount: u32,
    /// Balance probe: touches only `from`, never writes.
    pub read_only: bool,
}

/// Knobs for [`generate`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceWorkloadConfig {
    /// Size of the account space; ids are `0..accounts`.
    pub accounts: u64,
    /// Zipfian exponent for account selection.
    pub skew: f64,
    /// Stream seed; the output is bit-stable per seed.
    pub seed: u64,
    /// Number of client transactions to emit.
    pub txs: usize,
    /// Percentage (0..=100) of read-only balance probes.
    pub read_only_pct: u8,
}

impl ServiceWorkloadConfig {
    /// Default stream at a given simulator scale and skew. Account
    /// spaces are deliberately large — the service maps only the
    /// accounts a block actually touches, so millions of accounts cost
    /// nothing.
    pub fn scaled(scale: Scale, skew: f64) -> Self {
        let factor = scale.factor() as u64;
        ServiceWorkloadConfig {
            accounts: 500_000 * factor,
            skew,
            seed: 0x5EED_5E4C + (skew * 1000.0) as u64,
            txs: 500 * factor as usize,
            read_only_pct: 20,
        }
    }
}

/// Generates a bit-stable client-transaction stream.
///
/// Determinism contract: the output is a pure function of the config.
/// Two generators, per-field draw order, and the Zipfian sampler all run
/// off `SplitMix64` streams derived from `seed`, so any change to the
/// sequence is a deliberate, test-visible event.
pub fn generate(cfg: &ServiceWorkloadConfig) -> Vec<ClientTx> {
    assert!(cfg.accounts >= 2, "transfers need at least two accounts");
    assert!(cfg.read_only_pct <= 100);
    let mut pick = ZipfAccounts::new(cfg.accounts, cfg.skew, cfg.seed);
    // Independent stream for amounts and the read-only coin so changing
    // the read-only mix doesn't reshuffle which accounts get hot.
    let mut aux = SplitMix64::new(cfg.seed ^ 0xA5A5_A5A5_A5A5_A5A5);
    let mut out = Vec::with_capacity(cfg.txs);
    for id in 0..cfg.txs as u64 {
        let read_only = (aux.next_u64() % 100) < cfg.read_only_pct as u64;
        let from = pick.next_account();
        if read_only {
            out.push(ClientTx {
                id,
                from,
                to: from,
                amount: 0,
                read_only: true,
            });
            continue;
        }
        let mut to = pick.next_account();
        if to == from {
            // Self-transfers are a no-op; redirect to the neighbour so
            // every transfer moves value.
            to = (to + 1) % cfg.accounts;
        }
        let amount = (aux.next_u64() % 1_000) as u32 + 1;
        out.push(ClientTx {
            id,
            from,
            to,
            amount,
            read_only: false,
        });
    }
    out
}

/// Burst shaping for [`generate_bursts`]: the overload generator the
/// service sweep's backpressure drill floods the bounded submit queue
/// with.
#[derive(Debug, Clone, Copy)]
pub struct BurstConfig {
    /// Mean burst length in transactions; actual lengths are drawn
    /// geometrically around the mean, so the stream mixes single
    /// stragglers with queue-depth-crushing spikes.
    pub mean_burst: usize,
    /// Hard cap on one burst.
    pub max_burst: usize,
}

impl BurstConfig {
    /// A default shape whose spikes comfortably exceed typical
    /// `queue_depth` settings at every scale.
    pub fn new(mean_burst: usize) -> Self {
        BurstConfig {
            mean_burst: mean_burst.max(1),
            max_burst: mean_burst.max(1) * 8,
        }
    }
}

/// Chops the stream of [`generate`] into arrival bursts for overload and
/// crash drills: each inner vector is submitted back-to-back (a traffic
/// spike), with the client expected to drain/back off between bursts.
///
/// The concatenation of the bursts is exactly `generate(cfg)` — burst
/// shaping changes arrival timing, never content — and burst lengths are
/// a pure function of `(cfg.seed, burst)`, so a crash sweep replaying
/// the same config floods the queue identically every run.
pub fn generate_bursts(cfg: &ServiceWorkloadConfig, burst: &BurstConfig) -> Vec<Vec<ClientTx>> {
    assert!(burst.mean_burst >= 1 && burst.max_burst >= burst.mean_burst);
    let stream = generate(cfg);
    let mut lens = SplitMix64::new(cfg.seed ^ 0xB0B5_7B0B_57B0_B57B);
    let mut out = Vec::new();
    let mut rest = &stream[..];
    while !rest.is_empty() {
        // Geometric-ish draw: product of two uniform draws over
        // [1, 2*mean] biases toward short bursts with a heavy tail.
        let a = (lens.next_u64() % (2 * burst.mean_burst as u64)) + 1;
        let b = (lens.next_u64() % (2 * burst.mean_burst as u64)) + 1;
        let len = (((a * b) as f64).sqrt() as usize)
            .clamp(1, burst.max_burst)
            .min(rest.len());
        let (head, tail) = rest.split_at(len);
        out.push(head.to_vec());
        rest = tail;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bursts_concatenate_to_the_plain_stream_and_vary_in_length() {
        let cfg = ServiceWorkloadConfig {
            accounts: 10_000,
            skew: 0.9,
            seed: 99,
            txs: 2_000,
            read_only_pct: 25,
        };
        let burst = BurstConfig::new(16);
        let bursts = generate_bursts(&cfg, &burst);
        assert_eq!(bursts, generate_bursts(&cfg, &burst), "bit-stable");
        let flat: Vec<ClientTx> = bursts.iter().flatten().copied().collect();
        assert_eq!(flat, generate(&cfg), "shaping never changes content");
        let lens: Vec<usize> = bursts.iter().map(|b| b.len()).collect();
        assert!(lens.iter().all(|&l| l >= 1 && l <= burst.max_burst));
        let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
        assert!(min < max, "a flood generator needs spikes: {lens:?}");
        assert!(*max > burst.mean_burst, "tail reaches past the mean");
    }

    #[test]
    fn generate_is_deterministic_per_seed() {
        let cfg = ServiceWorkloadConfig {
            accounts: 10_000,
            skew: 0.9,
            seed: 99,
            txs: 500,
            read_only_pct: 25,
        };
        assert_eq!(generate(&cfg), generate(&cfg));
        let other = ServiceWorkloadConfig { seed: 100, ..cfg };
        assert_ne!(generate(&cfg), generate(&other));
    }

    #[test]
    fn transfers_never_self_transfer_and_stay_in_range() {
        let cfg = ServiceWorkloadConfig {
            accounts: 64,
            skew: 1.2,
            seed: 5,
            txs: 2_000,
            read_only_pct: 10,
        };
        for tx in generate(&cfg) {
            assert!(tx.from < cfg.accounts && tx.to < cfg.accounts);
            if !tx.read_only {
                assert_ne!(tx.from, tx.to);
                assert!(tx.amount >= 1);
            }
        }
    }

    #[test]
    fn read_only_mix_tracks_the_knob() {
        let cfg = ServiceWorkloadConfig {
            accounts: 1_000,
            skew: 0.6,
            seed: 7,
            txs: 10_000,
            read_only_pct: 30,
        };
        let ro = generate(&cfg).iter().filter(|t| t.read_only).count();
        let frac = ro as f64 / cfg.txs as f64;
        assert!((frac - 0.30).abs() < 0.03, "read-only fraction {frac}");
    }
}

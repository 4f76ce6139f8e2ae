//! `--seed` drives only the generator calls: the same seed gives the same
//! inputs and the same exact counts, another seed gives other inputs.

use ckpt_e2e::harness::{run, Options};
use ckpt_e2e::run::generate;
use ckpt_e2e::spec::{DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS};

#[test]
fn same_seed_same_snapshot_digests() {
    for w in WORKLOADS {
        let w = w.quick();
        let a = generate(&w, DEFAULT_SEED);
        let b = generate(&w, DEFAULT_SEED);
        let other = generate(&w, HELD_OUT_SEED);
        assert_eq!(a.digests, b.digests, "{}", w.name);
        assert_eq!(a.user_bytes, b.user_bytes);
        assert_ne!(a.digests, other.digests, "{}", w.name);
        assert_eq!(a.digests.len(), w.ranks as usize);
        assert!(a.digests.iter().all(|r| r.len() == w.checkpoints));
        if w.ranks > 1 {
            // Ranks share a region but not their tails.
            assert_ne!(a.digests[0], a.digests[1], "{}", w.name);
        }
    }
}

#[test]
fn same_seed_same_stored_bytes_per_user_byte() {
    for w in WORKLOADS {
        let stored = |seed: u64| {
            let mut o = Options::new(w.quick(), seed, 0.0);
            o.reps = Some(1);
            o.setup_rounds = 1;
            let r = run(&o);
            assert!(r.correct(), "{}", w.name);
            r.metric("stored_bytes_per_user_byte")
                .expect("listed")
                .value
        };
        let a = stored(DEFAULT_SEED);
        assert_eq!(a, stored(DEFAULT_SEED), "{}", w.name);
        assert_ne!(a, stored(HELD_OUT_SEED), "{}", w.name);
    }
}

//! Property tests for the model substrate: conservation laws and
//! monotonicities that must hold for arbitrary model shapes and
//! configurations.

use pipette_model::{
    candidate_space, divisors, flops, memory, messages, BatchConfig, GptConfig, MicrobatchPlan,
    ParallelConfig,
};
use proptest::prelude::*;

fn arb_gpt() -> impl Strategy<Value = GptConfig> {
    (1usize..32, 1usize..8, 1usize..6).prop_map(|(layers, heads_pow, mult)| {
        let heads = heads_pow * 4;
        let hidden = heads * 32 * mult;
        GptConfig::new(layers, hidden, heads, 2048, 51200)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Layers are conserved across any stage split.
    #[test]
    fn layers_conserved(gpt in arb_gpt(), pp_sel in 1usize..8) {
        let pp = pp_sel.min(gpt.n_layers);
        let total: usize = (0..pp).map(|s| gpt.layers_of_stage(pp, s)).sum();
        prop_assert_eq!(total, gpt.n_layers);
        // Earliest stages get the remainder: non-increasing layer counts.
        let counts: Vec<usize> = (0..pp).map(|s| gpt.layers_of_stage(pp, s)).collect();
        prop_assert!(counts.windows(2).all(|w| w[0] >= w[1]));
    }

    /// Stage parameters are conserved (modulo the duplicated tied head).
    #[test]
    fn stage_params_conserved(gpt in arb_gpt(), pp_sel in 1usize..8) {
        let pp = pp_sel.min(gpt.n_layers);
        let total: u64 = (0..pp).map(|s| gpt.stage_params(pp, s)).sum();
        let extra = if pp > 1 { gpt.embedding_params() } else { 0 };
        prop_assert_eq!(total, gpt.num_params() + extra);
    }

    /// Stage FLOPs are conserved across the pipeline split.
    #[test]
    fn stage_flops_conserved(gpt in arb_gpt(), pp_sel in 1usize..8, micro in 1u64..8) {
        let pp = pp_sel.min(gpt.n_layers);
        let total: f64 = (0..pp).map(|s| flops::stage_fwd_flops(&gpt, pp, s, micro)).sum();
        let single = flops::stage_fwd_flops(&gpt, 1, 0, micro);
        prop_assert!((total / single - 1.0).abs() < 1e-12);
    }

    /// Model-state bytes shrink (weakly) monotonically with tensor ways,
    /// and ZeRO-1 never uses more memory than the replicated layout.
    #[test]
    fn sharding_is_monotone(gpt in arb_gpt(), dp in 1usize..16) {
        let mut last = u64::MAX;
        for tp in [1usize, 2, 4, 8] {
            let bytes = memory::model_state_bytes(&gpt, 1, tp, 0);
            prop_assert!(bytes <= last);
            last = bytes;
            let z1 = memory::model_state_bytes_zero1(&gpt, 1, tp, dp, 0);
            prop_assert!(z1 <= bytes + 1);
        }
    }

    /// Message sizes scale exactly linearly with the microbatch.
    #[test]
    fn messages_scale_linearly(gpt in arb_gpt(), micro in 1u64..16) {
        prop_assert_eq!(
            messages::pp_message_bytes(&gpt, micro),
            micro * messages::pp_message_bytes(&gpt, 1)
        );
        prop_assert_eq!(
            messages::tp_allreduce_bytes(&gpt, micro),
            micro * messages::tp_allreduce_bytes(&gpt, 1)
        );
    }

    /// Every enumerated configuration validates, and every validating
    /// triple is enumerated (soundness + completeness).
    #[test]
    fn enumeration_is_sound_and_complete(g_pow in 3usize..8, layers in 8usize..40) {
        let g = 1usize << g_pow;
        let configs = ParallelConfig::enumerate(g, 8, layers);
        for cfg in &configs {
            prop_assert!(cfg.validate(g, 8, layers).is_ok());
        }
        // Completeness over a brute-force scan.
        for pp in 1..=g {
            for tp in [1usize, 2, 4, 8] {
                if !g.is_multiple_of(pp * tp) || pp > layers {
                    continue;
                }
                let cfg = ParallelConfig::new(pp, tp, g / (pp * tp));
                prop_assert!(configs.contains(&cfg), "{cfg} missing");
            }
        }
    }

    /// Batch decomposition is exact: every plan multiplies back to the
    /// global batch through `dp`.
    #[test]
    fn batch_decomposition_is_exact(global_pow in 4u32..11, dp_pow in 0u32..5) {
        let global = 1u64 << global_pow;
        let dp = 1usize << dp_pow;
        let mini = BatchConfig::new(global).minibatch(dp).expect("powers of two divide");
        for plan in MicrobatchPlan::enumerate(mini, 8) {
            prop_assert_eq!(plan.micro_batch * plan.n_microbatches * dp as u64, global);
        }
    }

    /// The candidate space lists exactly what the nested loop every
    /// searcher used to run lists, in the same order: each configuration
    /// whose `dp` divides the batch, with its plans up to `max_micro`.
    #[test]
    fn candidate_space_matches_the_nested_loop(
        gpus in 1usize..160,
        gpus_per_node in 0usize..17,
        layers in 0usize..48,
        global in 1u64..1100,
        max_micro in 0u64..12,
    ) {
        let mut expected = Vec::new();
        for cfg in ParallelConfig::enumerate(gpus, gpus_per_node, layers) {
            let Ok(mini) = BatchConfig::new(global).minibatch(cfg.dp) else {
                continue;
            };
            expected.push((cfg, MicrobatchPlan::enumerate(mini, max_micro)));
        }
        prop_assert_eq!(
            candidate_space(gpus, gpus_per_node, layers, global, max_micro),
            expected
        );
    }

    /// `divisors` is multiplicative-closed under the divisor relation.
    #[test]
    fn divisors_of_divisors_divide(n in 1u64..2000) {
        let ds = divisors(n);
        for &d in &ds {
            for &e in &divisors(d) {
                prop_assert!(n % e == 0);
            }
        }
    }

    /// 1F1B in-flight counts: earlier stages never hold fewer microbatches
    /// than later ones, and the first stage saturates at min(pp, n_mb).
    #[test]
    fn inflight_counts_are_monotone(pp in 1usize..12, n_mb in 1u64..64) {
        let mut last = u64::MAX;
        for s in 0..pp {
            let i = memory::one_f_one_b_inflight(pp, s, n_mb);
            prop_assert!(i <= last);
            prop_assert!(i >= 1);
            last = i;
        }
        prop_assert_eq!(memory::one_f_one_b_inflight(pp, 0, n_mb), (pp as u64).min(n_mb));
    }
}

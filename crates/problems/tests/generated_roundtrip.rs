//! Property tests: every *generated* netlist round-trips losslessly
//! through the problem-set JSON serde and canonicalizes stably.
//!
//! The built-in suite's 24 goldens already round-trip exactly; these
//! properties extend the guarantee to the whole generated circuit space
//! the conformance harness draws from — including settings with many
//! decimals, multi-digit port numbering and every structural family —
//! and pin the canonical content hash as an invariant of serialization
//! and of document-order permutations.

use picbench_conformance::{shuffle_netlist, CircuitStrategy, GeneratorConfig};
use picbench_netlist::json;
use picbench_problems::{problems_from_json, problems_to_json, Category, Problem};
use proptest::prelude::*;
use proptest::TestRng;

fn wrap_as_problem(index: usize, netlist: picbench_netlist::Netlist) -> Problem {
    let inputs = netlist
        .ports
        .iter()
        .filter(|(name, _)| name.starts_with('I'))
        .count();
    let outputs = netlist.ports.len() - inputs;
    Problem {
        id: format!("generated-{index}"),
        name: format!("Generated case {index}"),
        category: Category::ALL[index % Category::ALL.len()],
        description: "Create a generated conformance circuit.\nParameters:\n  none".to_string(),
        spec: picbench_netlist::PortSpec::new(inputs, outputs),
        golden: netlist,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generated_problems_round_trip_through_json(
        gen in CircuitStrategy::new(GeneratorConfig::default()),
        index in 0usize..1000,
    ) {
        let original_hash = gen.netlist.content_hash();
        let problem = wrap_as_problem(index, gen.netlist.clone());
        let text = problems_to_json(std::slice::from_ref(&problem));
        let decoded = problems_from_json(&text)
            .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
        prop_assert_eq!(decoded.len(), 1);
        let back = &decoded[0];
        prop_assert_eq!(&back.id, &problem.id);
        prop_assert_eq!(back.category, problem.category);
        prop_assert_eq!(back.spec, problem.spec);
        // The golden netlist survives exactly — structure, settings
        // bits, document order.
        prop_assert_eq!(&back.golden, &gen.netlist);
        prop_assert_eq!(back.golden.content_hash(), original_hash);
        // And serialization is byte-stable from the second trip on.
        prop_assert_eq!(problems_to_json(&decoded), text);
    }

    #[test]
    fn canonical_hash_is_stable_across_round_trip_and_shuffles(
        gen in CircuitStrategy::new(GeneratorConfig::default()),
        shuffle_seed in 0u64..1_000_000,
    ) {
        let netlist = gen.netlist;
        let hash = netlist.content_hash();
        let canonical = netlist.canonicalize();
        prop_assert_eq!(canonical.content_hash(), hash);
        prop_assert_eq!(canonical.canonicalize(), canonical.clone());

        // Round-trip through the problem-set serde.
        let problem = wrap_as_problem(0, netlist.clone());
        let decoded = problems_from_json(&problems_to_json(&[problem]))
            .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
        prop_assert_eq!(decoded[0].golden.content_hash(), hash);
        prop_assert_eq!(decoded[0].golden.canonicalize(), canonical.clone());

        // Shuffle instance/port/model order and flip connections: the
        // canonical form and hash must not move.
        let mut rng = TestRng::new(shuffle_seed);
        let shuffled = shuffle_netlist(&netlist, &mut rng);
        prop_assert_eq!(shuffled.content_hash(), hash);
        prop_assert_eq!(shuffled.canonicalize(), canonical);
    }
}

#[test]
fn builtin_suite_canonical_hashes_survive_serde() {
    let suite = picbench_problems::suite();
    let text = problems_to_json(&suite);
    let decoded = problems_from_json(&text).expect("suite decodes");
    assert_eq!(decoded.len(), suite.len());
    for (a, b) in suite.iter().zip(&decoded) {
        assert_eq!(a.golden.content_hash(), b.golden.content_hash(), "{}", a.id);
    }
}

/// `Netlist::to_json_string` writes straight from the netlist; it must
/// stay byte-identical to pretty-printing the `Value` tree that
/// `to_value` builds for embedding.
#[test]
fn direct_netlist_writer_matches_the_value_tree_on_goldens_and_generated_circuits() {
    let pretty = |n: &picbench_netlist::Netlist| json::to_string_pretty(&n.to_value());
    for problem in picbench_problems::suite() {
        assert_eq!(
            problem.golden.to_json_string(),
            pretty(&problem.golden),
            "{}",
            problem.id
        );
    }
    let strategy = CircuitStrategy::new(GeneratorConfig::default());
    for seed in [1u64, 20250205, 0xdead_beef] {
        for case in strategy.sample(seed, 32) {
            assert_eq!(case.netlist.to_json_string(), pretty(&case.netlist));
        }
    }
}

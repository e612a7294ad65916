//! Property-based integration tests spanning the whole estimation pipeline.

use proptest::prelude::*;

use eco_chip::core::disaggregation::{split_logic, NodeTuple, SocBlocks};
use eco_chip::core::sweep::{SweepAxis, SweepEngine, SweepSpec};
use eco_chip::packaging::{
    InterposerConfig, PackagingArchitecture, RdlFanoutConfig, SiliconBridgeConfig,
};
use eco_chip::techdb::{TechNode, TimeSpan};
use eco_chip::{EcoChip, System, UsageProfile};

fn arbitrary_node() -> impl Strategy<Value = TechNode> {
    prop::sample::select(vec![
        TechNode::N5,
        TechNode::N7,
        TechNode::N10,
        TechNode::N14,
        TechNode::N22,
        TechNode::N28,
    ])
}

fn arbitrary_packaging() -> impl Strategy<Value = PackagingArchitecture> {
    prop::sample::select(vec![
        PackagingArchitecture::RdlFanout(RdlFanoutConfig::default()),
        PackagingArchitecture::SiliconBridge(SiliconBridgeConfig::default()),
        PackagingArchitecture::PassiveInterposer(InterposerConfig::default()),
        PackagingArchitecture::ActiveInterposer(InterposerConfig::default()),
    ])
}

fn build_system(
    logic_tr: f64,
    memory_tr: f64,
    analog_tr: f64,
    nc: usize,
    nodes: NodeTuple,
    packaging: PackagingArchitecture,
    lifetime_years: f64,
) -> System {
    let blocks = SocBlocks::new("prop", logic_tr, memory_tr, analog_tr);
    System::builder("prop-system")
        .chiplets(split_logic(&blocks, nc, nodes).expect("nc >= 1"))
        .packaging(packaging)
        .usage(UsageProfile::default())
        .lifetime(TimeSpan::from_years(lifetime_years))
        .build()
        .expect("valid system")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every estimate over a broad slice of the input space is finite,
    /// positive and self-consistent (embodied + operational = total).
    #[test]
    fn estimates_are_finite_and_consistent(
        logic_tr in 1.0e9f64..3.0e10,
        memory_tr in 1.0e8f64..1.0e10,
        analog_tr in 1.0e8f64..3.0e9,
        nc in 1usize..5,
        logic_node in arbitrary_node(),
        memory_node in arbitrary_node(),
        analog_node in arbitrary_node(),
        packaging in arbitrary_packaging(),
        lifetime in 1.0f64..6.0,
    ) {
        let est = EcoChip::default();
        let system = build_system(
            logic_tr, memory_tr, analog_tr, nc,
            NodeTuple::new(logic_node, memory_node, analog_node),
            packaging, lifetime,
        );
        let report = est.estimate(&system).unwrap();
        prop_assert!(report.total().kg().is_finite());
        prop_assert!(report.manufacturing().kg() > 0.0);
        prop_assert!(report.design().kg() > 0.0);
        prop_assert!(report.operational().kg() >= 0.0);
        prop_assert!(report.hi_overhead().kg() >= 0.0);
        let recomposed = report.embodied().kg() + report.operational().kg();
        prop_assert!((recomposed - report.total().kg()).abs() < 1e-9);
        prop_assert!(report.embodied_fraction() >= 0.0 && report.embodied_fraction() <= 1.0);
        prop_assert_eq!(report.chiplets.len(), nc + 2);
        // The ACT baseline never exceeds the full ECO-CHIP embodied estimate.
        let act = est.act_embodied(&system).unwrap();
        prop_assert!(act.total().kg() <= report.embodied().kg() + 1e-9);
    }

    /// Total CFP is monotone in lifetime and in transistor count.
    #[test]
    fn total_cfp_monotonicity(
        logic_tr in 2.0e9f64..2.0e10,
        extra_tr in 1.0e9f64..1.0e10,
        lifetime in 1.0f64..4.0,
        extra_years in 0.5f64..3.0,
    ) {
        let est = EcoChip::default();
        let nodes = NodeTuple::new(TechNode::N7, TechNode::N14, TechNode::N22);
        let packaging = PackagingArchitecture::RdlFanout(RdlFanoutConfig::default());
        let small = build_system(logic_tr, 2.0e9, 5.0e8, 2, nodes, packaging, lifetime);
        let bigger = build_system(logic_tr + extra_tr, 2.0e9, 5.0e8, 2, nodes, packaging, lifetime);
        let longer = build_system(logic_tr, 2.0e9, 5.0e8, 2, nodes, packaging, lifetime + extra_years);
        let r_small = est.estimate(&small).unwrap();
        let r_bigger = est.estimate(&bigger).unwrap();
        let r_longer = est.estimate(&longer).unwrap();
        prop_assert!(r_bigger.embodied().kg() > r_small.embodied().kg());
        prop_assert!(r_longer.total().kg() > r_small.total().kg());
        // Lifetime does not change the embodied component.
        prop_assert!((r_longer.embodied().kg() - r_small.embodied().kg()).abs() < 1e-6);
    }

    /// Splitting the digital block into more chiplets never increases the
    /// per-chiplet manufacturing CFP sum by more than the added HI overheads
    /// and communication area (i.e. Cmfg is non-increasing with Nc).
    #[test]
    fn manufacturing_cfp_decreases_with_disaggregation(
        logic_tr in 1.0e10f64..4.0e10,
        nc in 1usize..4,
    ) {
        let est = EcoChip::default();
        let nodes = NodeTuple::new(TechNode::N7, TechNode::N14, TechNode::N22);
        let packaging = PackagingArchitecture::RdlFanout(RdlFanoutConfig::default());
        let coarse = build_system(logic_tr, 4.0e9, 1.0e9, nc, nodes, packaging, 2.0);
        let fine = build_system(logic_tr, 4.0e9, 1.0e9, nc * 2, nodes, packaging, 2.0);
        let r_coarse = est.estimate(&coarse).unwrap();
        let r_fine = est.estimate(&fine).unwrap();
        prop_assert!(r_fine.manufacturing().kg() <= r_coarse.manufacturing().kg() * 1.02);
        prop_assert!(r_fine.hi_overhead().kg() >= r_coarse.hi_overhead().kg() * 0.98);
    }
}

/// A random three-chiplet-or-more system for the metamorphic properties.
fn metamorphic_base(
    logic_tr: f64,
    nc: usize,
    logic_node: TechNode,
    packaging: PackagingArchitecture,
) -> System {
    let nodes = NodeTuple::new(logic_node, TechNode::N14, TechNode::N22);
    build_system(logic_tr, 2.0e9, 5.0e8, nc, nodes, packaging, 3.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Across a `Lifetimes` axis the embodied CFP and the per-year
    /// operational CFP are bit-identical, and the lifetime operational CFP
    /// is exactly `operational_per_year × years`: Eq. 1 is linear in the
    /// lifetime, so a lifetime step could be re-priced, not re-estimated.
    #[test]
    fn lifetime_axis_rescales_only_operational(
        logic_tr in 1.0e9f64..3.0e10,
        nc in 1usize..4,
        logic_node in arbitrary_node(),
        packaging in arbitrary_packaging(),
        years in prop::collection::vec(0.25f64..12.0, 2..6),
    ) {
        let est = EcoChip::default();
        let base = metamorphic_base(logic_tr, nc, logic_node, packaging);
        let spec = SweepSpec::new(base).axis(SweepAxis::lifetimes_years(&years));
        let points = SweepEngine::serial().run(&est, &spec).unwrap();
        let first = &points[0].report;
        for (point, &years) in points.iter().zip(&years) {
            let report = &point.report;
            let lifetime = TimeSpan::from_years(years);
            prop_assert_eq!(report.lifetime, lifetime);
            prop_assert_eq!(report.embodied().kg().to_bits(), first.embodied().kg().to_bits());
            prop_assert_eq!(
                report.operational_per_year.kg().to_bits(),
                first.operational_per_year.kg().to_bits()
            );
            prop_assert_eq!(
                report.operational().kg().to_bits(),
                (first.operational_per_year * lifetime.years()).kg().to_bits()
            );
        }
    }

    /// Across a `Volumes` axis with a rising chiplet volume, the amortized
    /// design CFP never rises and the manufacturing CFP is bit-identical:
    /// volumes enter the model only through design amortization (Eq. 12).
    #[test]
    fn rising_chiplet_volume_lowers_only_design(
        logic_tr in 1.0e9f64..3.0e10,
        nc in 1usize..4,
        logic_node in arbitrary_node(),
        packaging in arbitrary_packaging(),
        system_volume in 1_000u64..1_000_000,
        ratios in prop::collection::vec(0.05f64..20.0, 2..6),
    ) {
        let mut ratios = ratios;
        ratios.sort_by(f64::total_cmp);
        let est = EcoChip::default();
        let base = metamorphic_base(logic_tr, nc, logic_node, packaging);
        let spec = SweepSpec::new(base).axis(SweepAxis::reuse_ratios(system_volume, &ratios));
        let points = SweepEngine::serial().run(&est, &spec).unwrap();
        for pair in points.windows(2) {
            let (before, after) = (&pair[0], &pair[1]);
            prop_assert!(after.system.volumes.chiplet_volume >= before.system.volumes.chiplet_volume);
            prop_assert!(after.report.design().kg() <= before.report.design().kg());
            prop_assert_eq!(
                after.report.manufacturing().kg().to_bits(),
                before.report.manufacturing().kg().to_bits()
            );
        }
    }
}

/// Render a sweep as the canonical JSON-lines stream through `engine`.
fn jsonl_stream(
    engine: &eco_chip::core::sweep::SweepEngine,
    est: &EcoChip,
    spec: &eco_chip::core::sweep::SweepSpec,
) -> String {
    let mut out = String::new();
    engine
        .stream(
            est,
            spec,
            eco_chip::core::sweep::Shard::FULL,
            &eco_chip::core::sweep::SweepContext::new(),
            None,
            &mut |point: eco_chip::core::sweep::SweepPoint| {
                out.push_str(&serde_json::to_string(&point).unwrap());
                out.push('\n');
                Ok(())
            },
        )
        .unwrap();
    out
}

/// Chunked parallel streaming must reproduce the serial per-point stream
/// bit for bit: for every built-in test case the lifetime sweep is rendered
/// once serially (jobs=1, chunk=1) and compared against a 4-worker engine
/// at chunk sizes 1, 7, exactly the sweep length, and past the end.
#[test]
fn chunked_streaming_is_bit_identical_for_every_builtin() {
    use eco_chip::core::dse::named_sweep_axis;
    use eco_chip::core::sweep::{SweepEngine, SweepSpec};
    use eco_chip::techdb::TechDb;
    use eco_chip::testcases::catalog;

    let db = TechDb::default();
    let est = EcoChip::default();
    for name in catalog::names() {
        let system = catalog::build(&db, &name).unwrap();
        let spec =
            SweepSpec::new(system.clone()).axis(named_sweep_axis("lifetime", &system).unwrap());
        let len = spec.try_len().unwrap();
        let serial = SweepEngine::with_jobs(1).with_chunk(1);
        let reference = jsonl_stream(&serial, &est, &spec);
        for chunk in [1, 7, len, len + 13] {
            let chunked = SweepEngine::with_jobs(4).with_chunk(chunk);
            let stream = jsonl_stream(&chunked, &est, &spec);
            assert_eq!(
                stream, reference,
                "{name}: chunk {chunk} diverged from the serial stream"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random worker counts and chunk sizes never change the streamed
    /// bytes — ordering, numeric formatting and error-free emission are
    /// all invariant under the chunked claiming schedule.
    #[test]
    fn chunked_streaming_is_schedule_invariant(
        jobs in 1usize..6,
        chunk in 1usize..24,
    ) {
        use eco_chip::core::dse::named_sweep_axis;
        use eco_chip::core::sweep::{SweepEngine, SweepSpec};
        use eco_chip::techdb::TechDb;
        use eco_chip::testcases::catalog;

        let db = TechDb::default();
        let est = EcoChip::default();
        let system = catalog::build(&db, "ga102-3chiplet").unwrap();
        let spec = SweepSpec::new(system.clone())
            .axis(named_sweep_axis("lifetime", &system).unwrap());
        let serial = SweepEngine::with_jobs(1).with_chunk(1);
        let reference = jsonl_stream(&serial, &est, &spec);
        let engine = SweepEngine::with_jobs(jobs).with_chunk(chunk);
        prop_assert_eq!(jsonl_stream(&engine, &est, &spec), reference);
    }
}

/// Name characters that stress the pretty printer's string skipping: JSON
/// structure, quotes and backslashes, control characters and non-ASCII.
fn tricky_name() -> impl Strategy<Value = Vec<char>> {
    prop::collection::vec(
        prop::sample::select(vec![
            'a', 'Z', '7', ' ', '"', '\\', '{', '}', '[', ']', ',', ':', '\n', '\r', '\t', '\u{0}',
            '\u{1f}', '\u{7f}', 'é', '→', '\u{2028}', '😀',
        ]),
        0..16,
    )
}

/// `json` without the whitespace that lies outside its string literals.
fn strip_layout(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    let (mut in_string, mut escaped) = (false, false);
    for c in json.chars() {
        if in_string {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
        } else if c == '"' {
            in_string = true;
        } else if matches!(c, ' ' | '\t' | '\n' | '\r') {
            continue;
        }
        out.push(c);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Pretty output is the compact output re-indented: both decode back to
    /// the system, and dropping the layout whitespace from the pretty text
    /// gives the compact text exactly, whatever the names hold.
    #[test]
    fn pretty_json_is_compact_json_reindented(
        system_name in tricky_name(),
        chiplet_names in prop::collection::vec(tricky_name(), 4),
        nc in 1usize..4,
        logic in arbitrary_node(),
        packaging in arbitrary_packaging(),
        lifetime_years in 0.5f64..10.0,
    ) {
        let nodes = NodeTuple::new(logic, TechNode::N14, TechNode::N10);
        let mut system =
            build_system(2.0e10, 5.0e9, 1.0e9, nc, nodes, packaging, lifetime_years);
        system.name = system_name.into_iter().collect();
        for (chiplet, name) in system.chiplets.iter_mut().zip(chiplet_names) {
            chiplet.name = name.into_iter().collect();
        }

        let compact = serde_json::to_string(&system).unwrap();
        let pretty = serde_json::to_string_pretty(&system).unwrap();
        prop_assert_eq!(serde_json::from_str::<System>(&compact).unwrap(), system.clone());
        prop_assert_eq!(serde_json::from_str::<System>(&pretty).unwrap(), system);
        prop_assert_eq!(strip_layout(&pretty), compact);
    }
}

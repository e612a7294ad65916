//! The recursive bi-partitioning slicing floorplanner.

use std::fmt;

use serde::{Deserialize, Serialize};

use ecochip_techdb::{Area, Length};

use crate::error::FloorplanError;
use crate::geometry::{Adjacency, Placement, Rect};

/// The outline (name + area + aspect ratio) of one chiplet to be placed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChipletOutline {
    /// Name of the chiplet (used in the resulting placements).
    pub name: String,
    /// Silicon area of the chiplet.
    pub area: Area,
    /// Width/height aspect ratio of the chiplet outline (1.0 = square).
    pub aspect_ratio: f64,
}

impl ChipletOutline {
    /// The aspect ratio [`ChipletOutline::new`] gives an outline: square.
    pub const DEFAULT_ASPECT_RATIO: f64 = 1.0;

    /// A square chiplet of the given area.
    pub fn new(name: impl Into<String>, area: Area) -> Self {
        Self {
            name: name.into(),
            area,
            aspect_ratio: Self::DEFAULT_ASPECT_RATIO,
        }
    }

    /// A chiplet with an explicit width/height aspect ratio.
    pub fn with_aspect_ratio(name: impl Into<String>, area: Area, aspect_ratio: f64) -> Self {
        Self {
            name: name.into(),
            area,
            aspect_ratio,
        }
    }

    pub(crate) fn dimensions(&self) -> (f64, f64) {
        let ar = if self.aspect_ratio.is_finite() && self.aspect_ratio > 0.0 {
            self.aspect_ratio
        } else {
            1.0
        };
        let a = self.area.mm2();
        let width = (a * ar).sqrt();
        let height = (a / ar).sqrt();
        (width, height)
    }
}

/// Configuration of the floorplanner.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FloorplanConfig {
    /// Minimum spacing between two adjacent chiplets on the substrate
    /// (0.1 – 1 mm in Table I).
    pub chiplet_spacing: Length,
    /// Extra margin added around the assembled chiplets on each side of the
    /// package substrate (keep-out for sealing, routing escape, …).
    pub edge_margin: Length,
}

impl Default for FloorplanConfig {
    /// 0.5 mm chiplet spacing (middle of the Table I range), 0.5 mm edge
    /// margin.
    fn default() -> Self {
        Self {
            chiplet_spacing: Length::from_mm(0.5),
            edge_margin: Length::from_mm(0.5),
        }
    }
}

impl FloorplanConfig {
    /// Create a configuration with the given chiplet spacing and no edge
    /// margin.
    pub fn with_spacing(chiplet_spacing: Length) -> Self {
        Self {
            chiplet_spacing,
            edge_margin: Length::ZERO,
        }
    }

    fn validate(&self) -> Result<(), FloorplanError> {
        if !self.chiplet_spacing.mm().is_finite() || self.chiplet_spacing.mm() < 0.0 {
            return Err(FloorplanError::InvalidConfig {
                name: "chiplet_spacing",
                value: self.chiplet_spacing.mm(),
                expected: "a finite value >= 0 mm",
            });
        }
        if !self.edge_margin.mm().is_finite() || self.edge_margin.mm() < 0.0 {
            return Err(FloorplanError::InvalidConfig {
                name: "edge_margin",
                value: self.edge_margin.mm(),
                expected: "a finite value >= 0 mm",
            });
        }
        Ok(())
    }
}

/// The slicing floorplanner.
#[derive(Debug, Clone, Default)]
pub struct SlicingFloorplanner {
    config: FloorplanConfig,
}

impl SlicingFloorplanner {
    /// Create a floorplanner with the given configuration.
    pub fn new(config: FloorplanConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &FloorplanConfig {
        &self.config
    }

    /// Produce a floorplan of the given chiplets.
    ///
    /// # Errors
    ///
    /// Returns [`FloorplanError::NoChiplets`] for an empty input,
    /// [`FloorplanError::InvalidChipletArea`] for chiplets with non-positive
    /// areas, and [`FloorplanError::InvalidConfig`] for invalid spacing.
    pub fn floorplan(&self, chiplets: &[ChipletOutline]) -> Result<Floorplan, FloorplanError> {
        self.config.validate()?;
        if chiplets.is_empty() {
            return Err(FloorplanError::NoChiplets);
        }
        for c in chiplets {
            if !c.area.mm2().is_finite() || c.area.mm2() <= 0.0 {
                return Err(FloorplanError::InvalidChipletArea {
                    name: c.name.clone(),
                    area_mm2: c.area.mm2(),
                });
            }
        }

        // Sort indices by decreasing area (the paper's greedy balancing order).
        let mut order: Vec<usize> = (0..chiplets.len()).collect();
        order.sort_by(|&a, &b| {
            chiplets[b]
                .area
                .mm2()
                .partial_cmp(&chiplets[a].area.mm2())
                .unwrap_or(std::cmp::Ordering::Equal)
        });

        let mut placements = Vec::with_capacity(chiplets.len());
        let mut scratch = Vec::with_capacity(chiplets.len());
        let (width, height) = self.place(chiplets, &mut order, &mut scratch, 0, &mut placements);

        let margin = self.config.edge_margin.mm();
        for placement in &mut placements {
            placement.rect = placement.rect.translated(margin, margin);
        }
        let bounding_box = Rect::new(0.0, 0.0, width + 2.0 * margin, height + 2.0 * margin);
        let silicon_area = chiplets.iter().map(|c| c.area).sum();
        let adjacencies = scan_adjacencies(&placements, self.config.chiplet_spacing);

        Ok(Floorplan {
            placements,
            bounding_box,
            silicon_area,
            adjacencies,
        })
    }

    /// Place the chiplets of `order` (area-sorted) as one slicing subtree
    /// at `depth`, appending their placements relative to the subtree's
    /// lower-left corner; returns the subtree's `(width, height)`.
    ///
    /// Each level splits `order` in place with the paper's greedy
    /// area-balanced bi-partition, places the left part, then the right
    /// part, and shifts the right part's placements past the left one.
    /// `depth` alternates the cut direction: even depths place the two
    /// parts side by side (vertical cut), odd depths stack them
    /// (horizontal cut).
    fn place(
        &self,
        chiplets: &[ChipletOutline],
        order: &mut [usize],
        scratch: &mut Vec<usize>,
        depth: usize,
        placements: &mut Vec<Placement>,
    ) -> (f64, f64) {
        if let [idx] = *order {
            let (w, h) = chiplets[idx].dimensions();
            placements.push(Placement {
                name: chiplets[idx].name.clone(),
                index: idx,
                rect: Rect::new(0.0, 0.0, w, h),
            });
            return (w, h);
        }
        let split = bipartition(chiplets, order, scratch);
        let (left, right) = order.split_at_mut(split);
        let (left_width, left_height) = self.place(chiplets, left, scratch, depth + 1, placements);
        let first_right = placements.len();
        let (right_width, right_height) =
            self.place(chiplets, right, scratch, depth + 1, placements);
        let right_placements = &mut placements[first_right..];
        let spacing = self.config.chiplet_spacing.mm();
        if depth.is_multiple_of(2) {
            // Side by side (left | right).
            let dx = left_width + spacing;
            for placement in right_placements {
                placement.rect = placement.rect.translated(dx, 0.0);
            }
            (
                left_width + spacing + right_width,
                left_height.max(right_height),
            )
        } else {
            // Stacked (bottom / top).
            let dy = left_height + spacing;
            for placement in right_placements {
                placement.rect = placement.rect.translated(0.0, dy);
            }
            (
                left_width.max(right_width),
                left_height + spacing + right_height,
            )
        }
    }
}

/// Greedy area-balanced bi-partition (the paper's algorithm), in place and
/// stable: each chiplet of `order` joins the side with the smaller total
/// area so far. The left side ends up at the front of `order` and the right
/// side behind it, each in its original order; returns the left side's
/// length. `scratch` holds the right side meanwhile.
///
/// Greedy always puts the first chiplet on the left, and the second sees
/// `left_area > 0 = right_area`, so both sides are non-empty whenever
/// `order` holds more than one chiplet.
fn bipartition(
    chiplets: &[ChipletOutline],
    order: &mut [usize],
    scratch: &mut Vec<usize>,
) -> usize {
    scratch.clear();
    let mut left = 0;
    let (mut left_area, mut right_area) = (0.0f64, 0.0f64);
    for at in 0..order.len() {
        let idx = order[at];
        let a = chiplets[idx].area.mm2();
        if left_area <= right_area {
            // `left <= at`: the slot is already read.
            order[left] = idx;
            left += 1;
            left_area += a;
        } else {
            scratch.push(idx);
            right_area += a;
        }
    }
    order[left..].copy_from_slice(scratch);
    left
}

/// The chiplet pairs of `placements` that face each other across at most
/// the chiplet-spacing gap (with a 50% tolerance), sorted by index pair and
/// sized exactly.
fn scan_adjacencies(placements: &[Placement], chiplet_spacing: Length) -> Vec<Adjacency> {
    let gap = chiplet_spacing.mm() * 1.5 + 1e-6;
    // Slicing placements are planar, so adjacent pairs grow linearly
    // with the chiplet count even though the scan is quadratic.
    let mut result = Vec::with_capacity(placements.len().saturating_mul(2));
    for i in 0..placements.len() {
        for j in (i + 1)..placements.len() {
            let (a, b) = (&placements[i], &placements[j]);
            if let Some(shared) = a.rect.adjacency_overlap(&b.rect, gap) {
                let (lo, hi) = if a.index <= b.index {
                    (a.index, b.index)
                } else {
                    (b.index, a.index)
                };
                result.push(Adjacency {
                    a: lo,
                    b: hi,
                    shared_edge: shared,
                });
            }
        }
    }
    result.sort_by_key(|x| (x.a, x.b));
    result.shrink_to_fit();
    result
}

/// The result of floorplanning a set of chiplets.
///
/// A plan is derived data: it is built only by
/// [`SlicingFloorplanner::floorplan`], which also finds its adjacencies,
/// so it has no serialized form.
#[derive(Debug, Clone, PartialEq)]
pub struct Floorplan {
    placements: Vec<Placement>,
    bounding_box: Rect,
    silicon_area: Area,
    adjacencies: Vec<Adjacency>,
}

impl Floorplan {
    /// Placed chiplet outlines.
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// The package-substrate / interposer bounding box.
    pub fn bounding_box(&self) -> Rect {
        self.bounding_box
    }

    /// Total substrate / interposer area (the bounding-box area), i.e.
    /// `Apackage` in Eq. (9).
    pub fn package_area(&self) -> Area {
        self.bounding_box.area()
    }

    /// Sum of the chiplet silicon areas.
    pub fn silicon_area(&self) -> Area {
        self.silicon_area
    }

    /// Whitespace: package area not covered by chiplet silicon
    /// (spacing + aspect-ratio mismatch + edge margin).
    pub fn whitespace_area(&self) -> Area {
        Area::from_mm2((self.package_area().mm2() - self.silicon_area.mm2()).max(0.0))
    }

    /// Whitespace as a fraction of the package area, in `[0, 1]`.
    pub fn whitespace_fraction(&self) -> f64 {
        let pkg = self.package_area().mm2();
        if pkg <= 0.0 {
            0.0
        } else {
            (self.whitespace_area().mm2() / pkg).clamp(0.0, 1.0)
        }
    }

    /// Pairs of chiplets that share an interface across the chiplet-spacing
    /// gap, sorted by index pair. These are the candidate locations for
    /// silicon bridges and inter-die routers. The planner finds them once,
    /// so a memoized plan serves them without a rescan.
    pub fn adjacencies(&self) -> &[Adjacency] {
        &self.adjacencies
    }

    /// The number of distinct chiplet-to-chiplet interfaces.
    pub fn interface_count(&self) -> usize {
        self.adjacencies.len()
    }
}

impl fmt::Display for Floorplan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} chiplets in {:.1} mm2 package ({:.1}% whitespace)",
            self.placements.len(),
            self.package_area().mm2(),
            self.whitespace_fraction() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn outlines(areas: &[f64]) -> Vec<ChipletOutline> {
        areas
            .iter()
            .enumerate()
            .map(|(i, &a)| ChipletOutline::new(format!("c{i}"), Area::from_mm2(a)))
            .collect()
    }

    fn planner() -> SlicingFloorplanner {
        SlicingFloorplanner::new(FloorplanConfig::default())
    }

    #[test]
    fn single_chiplet_floorplan() {
        let plan = planner()
            .floorplan(&outlines(&[100.0]))
            .expect("single chiplet");
        assert_eq!(plan.placements().len(), 1);
        // Only the edge margin inflates the package beyond the die.
        assert!(plan.package_area().mm2() >= 100.0);
        assert!(plan.package_area().mm2() < 130.0);
        assert!(plan.adjacencies().is_empty());
        assert_eq!(plan.interface_count(), 0);
        assert!(!plan.to_string().is_empty());
    }

    #[test]
    fn empty_input_is_rejected() {
        assert!(matches!(
            planner().floorplan(&[]),
            Err(FloorplanError::NoChiplets)
        ));
    }

    #[test]
    fn invalid_area_is_rejected() {
        let err = planner().floorplan(&outlines(&[100.0, 0.0])).unwrap_err();
        assert!(matches!(err, FloorplanError::InvalidChipletArea { .. }));
        assert!(planner().floorplan(&outlines(&[100.0, f64::NAN])).is_err());
    }

    #[test]
    fn invalid_config_is_rejected() {
        let cfg = FloorplanConfig {
            chiplet_spacing: Length::from_mm(-1.0),
            edge_margin: Length::ZERO,
        };
        assert!(SlicingFloorplanner::new(cfg)
            .floorplan(&outlines(&[10.0]))
            .is_err());
        let cfg = FloorplanConfig {
            chiplet_spacing: Length::from_mm(0.5),
            edge_margin: Length::from_mm(f64::NAN),
        };
        assert!(SlicingFloorplanner::new(cfg)
            .floorplan(&outlines(&[10.0]))
            .is_err());
    }

    #[test]
    fn package_exceeds_silicon_and_whitespace_is_consistent() {
        let plan = planner()
            .floorplan(&outlines(&[300.0, 120.0, 60.0]))
            .unwrap();
        assert!(plan.package_area().mm2() >= plan.silicon_area().mm2());
        let ws = plan.whitespace_area().mm2();
        assert!((plan.package_area().mm2() - plan.silicon_area().mm2() - ws).abs() < 1e-9);
        assert!(plan.whitespace_fraction() > 0.0 && plan.whitespace_fraction() < 1.0);
    }

    #[test]
    fn placements_do_not_overlap_and_stay_inside_package() {
        let plan = planner()
            .floorplan(&outlines(&[250.0, 250.0, 125.0, 125.0, 60.0]))
            .unwrap();
        let bbox = plan.bounding_box();
        for (i, a) in plan.placements().iter().enumerate() {
            assert!(bbox.contains(&a.rect), "{} escapes the package", a.name);
            for b in plan.placements().iter().skip(i + 1) {
                assert!(!a.rect.overlaps(&b.rect), "{} overlaps {}", a.name, b.name);
            }
        }
    }

    #[test]
    fn adjacent_chiplets_are_detected() {
        let plan = planner().floorplan(&outlines(&[100.0, 100.0])).unwrap();
        let adjs = plan.adjacencies();
        assert_eq!(adjs.len(), 1);
        assert_eq!((adjs[0].a, adjs[0].b), (0, 1));
        assert!(adjs[0].shared_edge.mm() > 5.0);
    }

    #[test]
    fn four_equal_chiplets_form_a_grid_with_interfaces() {
        let plan = planner()
            .floorplan(&outlines(&[100.0, 100.0, 100.0, 100.0]))
            .unwrap();
        // A 2x2 arrangement has at least 4 abutting interfaces.
        assert!(plan.interface_count() >= 3);
        // The package should be roughly square-ish, not a 1x4 strip.
        let bbox = plan.bounding_box();
        let ar = bbox.width / bbox.height;
        assert!(ar > 0.4 && ar < 2.5, "aspect ratio {ar}");
    }

    #[test]
    fn aspect_ratio_is_respected() {
        let chiplets = vec![ChipletOutline::with_aspect_ratio(
            "wide",
            Area::from_mm2(100.0),
            4.0,
        )];
        let plan = planner().floorplan(&chiplets).unwrap();
        let rect = plan.placements()[0].rect;
        assert!((rect.width / rect.height - 4.0).abs() < 1e-6);
        assert!((rect.width * rect.height - 100.0).abs() < 1e-6);
        // Degenerate aspect ratios fall back to square.
        let chiplets = vec![ChipletOutline::with_aspect_ratio(
            "bad",
            Area::from_mm2(100.0),
            f64::NAN,
        )];
        let plan = planner().floorplan(&chiplets).unwrap();
        let rect = plan.placements()[0].rect;
        assert!((rect.width - rect.height).abs() < 1e-6);
    }

    #[test]
    fn spacing_increases_package_area() {
        let chiplets = outlines(&[100.0, 100.0, 100.0, 100.0]);
        let tight = SlicingFloorplanner::new(FloorplanConfig::with_spacing(Length::from_mm(0.1)))
            .floorplan(&chiplets)
            .unwrap();
        let loose = SlicingFloorplanner::new(FloorplanConfig::with_spacing(Length::from_mm(1.0)))
            .floorplan(&chiplets)
            .unwrap();
        assert!(loose.package_area() > tight.package_area());
        assert!((SlicingFloorplanner::default().config().chiplet_spacing.mm() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn partition_balances_area() {
        // One huge chiplet and several small ones: the huge one should sit
        // alone on one side, keeping whitespace bounded.
        let plan = planner()
            .floorplan(&outlines(&[400.0, 50.0, 50.0, 50.0, 50.0]))
            .unwrap();
        assert!(plan.whitespace_fraction() < 0.5);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn no_overlaps_and_containment_for_random_inputs(
            areas in proptest::collection::vec(5.0f64..400.0, 1..9),
            spacing in 0.1f64..1.0,
        ) {
            let chiplets = outlines(&areas);
            let planner = SlicingFloorplanner::new(FloorplanConfig::with_spacing(Length::from_mm(spacing)));
            let plan = planner.floorplan(&chiplets).unwrap();
            prop_assert_eq!(plan.placements().len(), chiplets.len());
            let bbox = plan.bounding_box();
            for (i, a) in plan.placements().iter().enumerate() {
                prop_assert!(bbox.contains(&a.rect));
                prop_assert!((a.rect.area().mm2() - areas[a.index]).abs() < 1e-6);
                for b in plan.placements().iter().skip(i + 1) {
                    prop_assert!(!a.rect.overlaps(&b.rect));
                }
            }
            prop_assert!(plan.package_area().mm2() + 1e-9 >= plan.silicon_area().mm2());
            prop_assert!(plan.whitespace_area().mm2() >= 0.0);
        }

        #[test]
        fn multi_chiplet_plans_have_interfaces(
            areas in proptest::collection::vec(20.0f64..200.0, 2..7),
        ) {
            let plan = planner().floorplan(&outlines(&areas)).unwrap();
            prop_assert!(plan.interface_count() >= 1);
            for adj in plan.adjacencies() {
                prop_assert!(adj.a < adj.b);
                prop_assert!(adj.shared_edge.mm() > 0.0);
            }
        }
    }
}

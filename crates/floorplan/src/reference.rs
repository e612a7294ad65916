//! The slicing floorplanner as a tree of boxed nodes, kept as the reference
//! the one-pass planner is checked against: it builds the whole
//! bi-partition tree first, packs it bottom-up into blocks that own their
//! placements, then scans every chiplet pair for adjacencies.

use proptest::prelude::*;

use ecochip_techdb::{Area, Length};

use crate::geometry::{Adjacency, Placement, Rect};
use crate::planner::{ChipletOutline, FloorplanConfig, SlicingFloorplanner};

/// Internal slicing-tree node.
enum Node {
    Leaf(usize),
    Internal(Box<Node>, Box<Node>),
}

/// A packed block: relative placements within a `width x height` bounding box.
struct Block {
    width: f64,
    height: f64,
    placements: Vec<(usize, Rect)>,
}

/// The reference plan of `chiplets`: placements, bounding box and
/// adjacencies.
fn floorplan(
    config: &FloorplanConfig,
    chiplets: &[ChipletOutline],
) -> (Vec<Placement>, Rect, Vec<Adjacency>) {
    let mut order: Vec<usize> = (0..chiplets.len()).collect();
    order.sort_by(|&a, &b| {
        chiplets[b]
            .area
            .mm2()
            .partial_cmp(&chiplets[a].area.mm2())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let tree = partition(chiplets, &order);
    let block = pack(config, chiplets, &tree, 0);
    let margin = config.edge_margin.mm();
    let placements: Vec<Placement> = block
        .placements
        .iter()
        .map(|(idx, rect)| Placement {
            name: chiplets[*idx].name.clone(),
            index: *idx,
            rect: rect.translated(margin, margin),
        })
        .collect();
    let bounding_box = Rect::new(
        0.0,
        0.0,
        block.width + 2.0 * margin,
        block.height + 2.0 * margin,
    );
    let adjacencies = adjacencies(&placements, config.chiplet_spacing);
    (placements, bounding_box, adjacencies)
}

/// Greedy area-balanced recursive bi-partitioning.
fn partition(chiplets: &[ChipletOutline], order: &[usize]) -> Node {
    if order.len() == 1 {
        return Node::Leaf(order[0]);
    }
    let mut left: Vec<usize> = Vec::new();
    let mut right: Vec<usize> = Vec::new();
    let (mut left_area, mut right_area) = (0.0f64, 0.0f64);
    for &idx in order {
        let a = chiplets[idx].area.mm2();
        if left_area <= right_area {
            left.push(idx);
            left_area += a;
        } else {
            right.push(idx);
            right_area += a;
        }
    }
    Node::Internal(
        Box::new(partition(chiplets, &left)),
        Box::new(partition(chiplets, &right)),
    )
}

/// Bottom-up packing of the slicing tree; `depth` alternates the cut.
fn pack(config: &FloorplanConfig, chiplets: &[ChipletOutline], node: &Node, depth: usize) -> Block {
    match node {
        Node::Leaf(idx) => {
            let (w, h) = chiplets[*idx].dimensions();
            Block {
                width: w,
                height: h,
                placements: vec![(*idx, Rect::new(0.0, 0.0, w, h))],
            }
        }
        Node::Internal(a, b) => {
            let left = pack(config, chiplets, a, depth + 1);
            let right = pack(config, chiplets, b, depth + 1);
            let spacing = config.chiplet_spacing.mm();
            let mut placements = left.placements;
            if depth.is_multiple_of(2) {
                let dx = left.width + spacing;
                placements.extend(
                    right
                        .placements
                        .into_iter()
                        .map(|(i, r)| (i, r.translated(dx, 0.0))),
                );
                Block {
                    width: left.width + spacing + right.width,
                    height: left.height.max(right.height),
                    placements,
                }
            } else {
                let dy = left.height + spacing;
                placements.extend(
                    right
                        .placements
                        .into_iter()
                        .map(|(i, r)| (i, r.translated(0.0, dy))),
                );
                Block {
                    width: left.width.max(right.width),
                    height: left.height + spacing + right.height,
                    placements,
                }
            }
        }
    }
}

/// Every pair of placements facing each other across the spacing gap.
fn adjacencies(placements: &[Placement], chiplet_spacing: Length) -> Vec<Adjacency> {
    let gap = chiplet_spacing.mm() * 1.5 + 1e-6;
    let mut result = Vec::new();
    for i in 0..placements.len() {
        for j in (i + 1)..placements.len() {
            let (a, b) = (&placements[i], &placements[j]);
            if let Some(shared) = a.rect.adjacency_overlap(&b.rect, gap) {
                result.push(Adjacency {
                    a: a.index.min(b.index),
                    b: a.index.max(b.index),
                    shared_edge: shared,
                });
            }
        }
    }
    result.sort_by_key(|x| (x.a, x.b));
    result
}

/// A rectangle's fields as bit patterns, so `-0.0` and `0.0` differ.
fn rect_bits(rect: &Rect) -> [u64; 4] {
    [rect.x, rect.y, rect.width, rect.height].map(f64::to_bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn one_pass_planner_matches_the_tree_planner_bit_for_bit(
        areas in proptest::collection::vec(0.5f64..600.0, 1..33),
        // One outline in three takes a shared area, so the sort meets ties.
        tied in proptest::collection::vec(0usize..3, 32),
        aspects in proptest::collection::vec(0.25f64..4.0, 32),
        spacing in 0.0f64..1.5,
        margin in 0.0f64..2.0,
    ) {
        let chiplets: Vec<ChipletOutline> = areas
            .iter()
            .enumerate()
            .map(|(i, &area)| {
                let area = if tied[i] == 0 { 100.0 } else { area };
                ChipletOutline::with_aspect_ratio(format!("c{i}"), Area::from_mm2(area), aspects[i])
            })
            .collect();
        let config = FloorplanConfig {
            chiplet_spacing: Length::from_mm(spacing),
            edge_margin: Length::from_mm(margin),
        };
        let plan = SlicingFloorplanner::new(config).floorplan(&chiplets).unwrap();
        let (placements, bounding_box, adjacencies) = floorplan(&config, &chiplets);

        prop_assert_eq!(rect_bits(&plan.bounding_box()), rect_bits(&bounding_box));
        prop_assert_eq!(plan.placements().len(), placements.len());
        for (got, want) in plan.placements().iter().zip(&placements) {
            prop_assert_eq!(&got.name, &want.name);
            prop_assert_eq!(got.index, want.index);
            prop_assert_eq!(rect_bits(&got.rect), rect_bits(&want.rect));
        }
        prop_assert_eq!(plan.adjacencies().len(), adjacencies.len());
        for (got, want) in plan.adjacencies().iter().zip(&adjacencies) {
            prop_assert_eq!((got.a, got.b), (want.a, want.b));
            prop_assert_eq!(got.shared_edge.mm().to_bits(), want.shared_edge.mm().to_bits());
        }
        prop_assert_eq!(plan.interface_count(), adjacencies.len());
    }
}

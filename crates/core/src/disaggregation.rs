//! SoC-to-chiplet disaggregation helpers.
//!
//! The paper's evaluation repeatedly derives chiplet-based variants from a
//! monolithic SoC description: a 3-chiplet split by block type (digital /
//! memory / analog), further splits of the digital block into `Nc` chiplets
//! (Figs. 9, 10, 15(b)), and technology-node retargeting per chiplet. This
//! module provides those transformations on top of a compact
//! [`SocBlocks`] description.

use serde::{Deserialize, Serialize};

use ecochip_techdb::{Area, DesignType, TechDb, TechDbError, TechNode};

use crate::error::EcoChipError;
use crate::system::{Chiplet, ChipletSize};

/// Block-level transistor budget of an SoC, the granularity at which the
/// paper describes its test cases.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SocBlocks {
    /// Name of the SoC.
    pub name: String,
    /// Digital-logic transistors.
    pub logic_transistors: f64,
    /// SRAM / memory transistors.
    pub memory_transistors: f64,
    /// Analog / IO transistors.
    pub analog_transistors: f64,
}

impl SocBlocks {
    /// Create a block description.
    pub fn new(
        name: impl Into<String>,
        logic_transistors: f64,
        memory_transistors: f64,
        analog_transistors: f64,
    ) -> Self {
        Self {
            name: name.into(),
            logic_transistors,
            memory_transistors,
            analog_transistors,
        }
    }

    /// Total transistor count.
    pub fn total_transistors(&self) -> f64 {
        self.logic_transistors + self.memory_transistors + self.analog_transistors
    }

    /// The die area of the monolithic SoC at `node` (all blocks on one die).
    ///
    /// # Errors
    ///
    /// Returns [`TechDbError::MissingNode`] for unknown nodes.
    pub fn monolithic_area(&self, db: &TechDb, node: TechNode) -> Result<Area, TechDbError> {
        let logic = db.area_for_transistors(node, DesignType::Logic, self.logic_transistors)?;
        let memory = db.area_for_transistors(node, DesignType::Memory, self.memory_transistors)?;
        let analog = db.area_for_transistors(node, DesignType::Analog, self.analog_transistors)?;
        Ok(logic + memory + analog)
    }
}

/// The technology node assigned to each block type in a 3-chiplet split,
/// written `(digital, memory, analog)` like the paper's three-tuple notation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct NodeTuple {
    /// Node of the digital-logic chiplet.
    pub logic: TechNode,
    /// Node of the memory chiplet.
    pub memory: TechNode,
    /// Node of the analog / IO chiplet.
    pub analog: TechNode,
}

impl NodeTuple {
    /// Create a `(digital, memory, analog)` node tuple.
    pub fn new(logic: TechNode, memory: TechNode, analog: TechNode) -> Self {
        Self {
            logic,
            memory,
            analog,
        }
    }

    /// All three blocks in the same node.
    pub fn uniform(node: TechNode) -> Self {
        Self::new(node, node, node)
    }

    /// The paper's label, e.g. `(7, 14, 10)`.
    pub fn label(&self) -> String {
        format!(
            "({}, {}, {})",
            self.logic.nm(),
            self.memory.nm(),
            self.analog.nm()
        )
    }
}

/// The single-die (monolithic) representation of the SoC at `node`.
///
/// The result is one chiplet whose area is the sum of the logic, memory and
/// analog block areas at that node. Because a single chiplet carries a single
/// design type, the monolithic die is tagged [`DesignType::Logic`] and sized
/// by area; retarget it by rebuilding from the [`SocBlocks`] rather than with
/// [`Chiplet::retargeted`].
///
/// # Errors
///
/// Returns [`EcoChipError::TechDb`] for unknown nodes.
pub fn monolithic_chiplet(
    blocks: &SocBlocks,
    db: &TechDb,
    node: TechNode,
) -> Result<Chiplet, EcoChipError> {
    let area = blocks.monolithic_area(db, node)?;
    Ok(Chiplet::new(
        format!("{}-monolith", blocks.name),
        DesignType::Logic,
        node,
        ChipletSize::AreaAtNode { area, node },
    ))
}

/// The paper's canonical 3-chiplet split: one digital, one memory and one
/// analog chiplet, each in its own technology node.
pub fn three_chiplets(blocks: &SocBlocks, nodes: NodeTuple) -> Vec<Chiplet> {
    vec![
        Chiplet::new(
            format!("{}-digital", blocks.name),
            DesignType::Logic,
            nodes.logic,
            ChipletSize::Transistors(blocks.logic_transistors),
        ),
        Chiplet::new(
            format!("{}-memory", blocks.name),
            DesignType::Memory,
            nodes.memory,
            ChipletSize::Transistors(blocks.memory_transistors),
        ),
        Chiplet::new(
            format!("{}-analog", blocks.name),
            DesignType::Analog,
            nodes.analog,
            ChipletSize::Transistors(blocks.analog_transistors),
        ),
    ]
}

/// The most digital chiplets [`split_logic`] builds. The paper's splits
/// stop at single digits; the bound keeps a request-supplied count (a
/// `ChipletCounts` sweep axis) from sizing an allocation that aborts the
/// process or a system no floorplanner finishes.
pub const MAX_LOGIC_CHIPLETS: usize = 1024;

/// Check a digital-chiplet count for [`split_logic`]. Request resolution
/// calls it too, so a bad `ChipletCounts` value is refused before a sweep
/// starts.
///
/// # Errors
///
/// Returns [`EcoChipError::InvalidSystem`] when `logic_chiplets` is zero or
/// above [`MAX_LOGIC_CHIPLETS`].
pub fn check_logic_chiplets(logic_chiplets: usize) -> Result<(), EcoChipError> {
    if logic_chiplets == 0 {
        return Err(EcoChipError::InvalidSystem(
            "the digital block must be split into at least one chiplet".to_owned(),
        ));
    }
    if logic_chiplets > MAX_LOGIC_CHIPLETS {
        return Err(EcoChipError::InvalidSystem(format!(
            "cannot split the digital block into {logic_chiplets} chiplets; \
             at most {MAX_LOGIC_CHIPLETS} are supported"
        )));
    }
    Ok(())
}

/// Split the digital block into `logic_chiplets` equal chiplets (plus the
/// memory and analog chiplets), the sweep of Figs. 9, 10 and 15(b).
///
/// # Errors
///
/// Returns [`EcoChipError::InvalidSystem`] when [`check_logic_chiplets`]
/// refuses `logic_chiplets`.
pub fn split_logic(
    blocks: &SocBlocks,
    logic_chiplets: usize,
    nodes: NodeTuple,
) -> Result<Vec<Chiplet>, EcoChipError> {
    check_logic_chiplets(logic_chiplets)?;
    let per_chiplet = blocks.logic_transistors / logic_chiplets as f64;
    let mut chiplets = Vec::with_capacity(logic_chiplets + 2);
    for i in 0..logic_chiplets {
        chiplets.push(Chiplet::new(
            format!("{}-digital{}", blocks.name, i),
            DesignType::Logic,
            nodes.logic,
            ChipletSize::Transistors(per_chiplet),
        ));
    }
    chiplets.push(Chiplet::new(
        format!("{}-memory", blocks.name),
        DesignType::Memory,
        nodes.memory,
        ChipletSize::Transistors(blocks.memory_transistors),
    ));
    chiplets.push(Chiplet::new(
        format!("{}-analog", blocks.name),
        DesignType::Analog,
        nodes.analog,
        ChipletSize::Transistors(blocks.analog_transistors),
    ));
    Ok(chiplets)
}

/// Split a single block of `total_transistors` into `n` equal chiplets of the
/// given design type and node (used for the digital-block packaging sweep of
/// Fig. 9, which has no memory / analog chiplets).
///
/// # Errors
///
/// Returns [`EcoChipError::InvalidSystem`] when `n` is zero.
pub fn split_block(
    name: &str,
    design_type: DesignType,
    node: TechNode,
    total_transistors: f64,
    n: usize,
) -> Result<Vec<Chiplet>, EcoChipError> {
    if n == 0 {
        return Err(EcoChipError::InvalidSystem(
            "cannot split a block into zero chiplets".to_owned(),
        ));
    }
    let per_chiplet = total_transistors / n as f64;
    Ok((0..n)
        .map(|i| {
            Chiplet::new(
                format!("{name}{i}"),
                design_type,
                node,
                ChipletSize::Transistors(per_chiplet),
            )
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocks() -> SocBlocks {
        // Roughly GA102-shaped: 28.3 B transistors total.
        SocBlocks::new("ga102", 20.0e9, 6.0e9, 2.3e9)
    }

    #[test]
    fn total_and_monolithic_area() {
        let db = TechDb::default();
        let b = blocks();
        assert!((b.total_transistors() - 28.3e9).abs() < 1.0);
        let area = b.monolithic_area(&db, TechNode::N8).unwrap();
        // Of the order of several hundred mm² — the GA102 is 628 mm².
        assert!(area.mm2() > 300.0 && area.mm2() < 900.0, "{area}");
    }

    #[test]
    fn monolithic_chiplet_preserves_area() {
        let db = TechDb::default();
        let b = blocks();
        let mono = monolithic_chiplet(&b, &db, TechNode::N8).unwrap();
        assert!(
            (mono.area(&db).unwrap().mm2() - b.monolithic_area(&db, TechNode::N8).unwrap().mm2())
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn three_chiplet_split_preserves_transistors() {
        let b = blocks();
        let nodes = NodeTuple::new(TechNode::N7, TechNode::N14, TechNode::N10);
        let chiplets = three_chiplets(&b, nodes);
        assert_eq!(chiplets.len(), 3);
        let total: f64 = chiplets
            .iter()
            .map(|c| match c.size {
                ChipletSize::Transistors(n) => n,
                _ => 0.0,
            })
            .sum();
        assert!((total - b.total_transistors()).abs() < 1.0);
        assert_eq!(chiplets[0].design_type, DesignType::Logic);
        assert_eq!(chiplets[1].design_type, DesignType::Memory);
        assert_eq!(chiplets[2].design_type, DesignType::Analog);
        assert_eq!(chiplets[0].node, TechNode::N7);
        assert_eq!(chiplets[1].node, TechNode::N14);
        assert_eq!(chiplets[2].node, TechNode::N10);
    }

    #[test]
    fn node_tuple_labels() {
        let t = NodeTuple::new(TechNode::N7, TechNode::N14, TechNode::N10);
        assert_eq!(t.label(), "(7, 14, 10)");
        assert_eq!(NodeTuple::uniform(TechNode::N7).label(), "(7, 7, 7)");
    }

    #[test]
    fn split_logic_conserves_transistors() {
        let b = blocks();
        let nodes = NodeTuple::new(TechNode::N7, TechNode::N10, TechNode::N14);
        for nc in 1..6 {
            let chiplets = split_logic(&b, nc, nodes).unwrap();
            assert_eq!(chiplets.len(), nc + 2);
            let total: f64 = chiplets
                .iter()
                .map(|c| match c.size {
                    ChipletSize::Transistors(n) => n,
                    _ => 0.0,
                })
                .sum();
            assert!((total - b.total_transistors()).abs() < 1.0);
        }
        assert!(split_logic(&b, 0, nodes).is_err());
        assert_eq!(
            split_logic(&b, MAX_LOGIC_CHIPLETS, nodes).unwrap().len(),
            MAX_LOGIC_CHIPLETS + 2
        );
        for count in [MAX_LOGIC_CHIPLETS + 1, 1 << 40, 1 << 62, usize::MAX] {
            let error = split_logic(&b, count, nodes).unwrap_err();
            assert!(error.to_string().contains(&count.to_string()), "{error}");
        }
    }

    #[test]
    fn split_block_is_uniform() {
        let chiplets = split_block("digital", DesignType::Logic, TechNode::N7, 45.0e9, 4).unwrap();
        assert_eq!(chiplets.len(), 4);
        for c in &chiplets {
            match c.size {
                ChipletSize::Transistors(n) => assert!((n - 45.0e9 / 4.0).abs() < 1.0),
                _ => panic!("expected transistor sizing"),
            }
        }
        assert!(split_block("x", DesignType::Logic, TechNode::N7, 1.0e9, 0).is_err());
    }

    #[test]
    fn serde_round_trip() {
        let b = blocks();
        let json = serde_json::to_string(&b).unwrap();
        let back: SocBlocks = serde_json::from_str(&json).unwrap();
        assert_eq!(b, back);
        let t = NodeTuple::uniform(TechNode::N7);
        let json = serde_json::to_string(&t).unwrap();
        let back: NodeTuple = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}

//! Per-node parameter tables (Table I of the paper) and the database that
//! serves them.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::design_type::DesignType;
use crate::error::TechDbError;
use crate::node::TechNode;
use crate::range::Range;
use crate::units::{Area, CarbonPerArea, EnergyPerArea, TransistorDensity, Voltage};

/// Manufacturing, packaging and design parameters of a single technology
/// node.
///
/// All default values are inside the ranges published in Table I of the
/// ECO-CHIP paper (sources: IMEC DTCO/PPACE data, ACT, industry defect-rate
/// and density disclosures). The per-node interpolation within those ranges
/// is this reproduction's choice and is documented in `DESIGN.md`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeParams {
    /// The node these parameters describe.
    pub node: TechNode,
    /// Defect density `D0(p)` in defects/cm² (0.07 – 0.3 in Table I).
    pub defect_density: DefectDensity,
    /// Yield-model clustering parameter α (Table I fixes it at 3).
    pub clustering_alpha: f64,
    /// Transistor density for standard-cell logic.
    pub logic_density: TransistorDensity,
    /// Transistor density for SRAM / memory macros.
    pub memory_density: TransistorDensity,
    /// Transistor density for analog / IO blocks.
    pub analog_density: TransistorDensity,
    /// Manufacturing energy per unit area, `EPA(p)` (0.8 – 3.5 kWh/cm²).
    pub epa: EnergyPerArea,
    /// Direct greenhouse-gas footprint of processing, `Cgas` (0.1 – 0.5 kg/cm²).
    pub gas_cfp: CarbonPerArea,
    /// Material-sourcing footprint, `Cmaterial` (0.5 kg/cm²).
    pub material_cfp: CarbonPerArea,
    /// Process-equipment energy-efficiency derate `ηeq ∈ (0, 1]` applied to
    /// EPA: mature nodes run on newer, more efficient lithography equipment.
    pub equipment_derate: f64,
    /// EDA-tool productivity factor `ηEDA ∈ (0, 1]`. Design time is divided by
    /// this factor, so mature nodes (≈1.0) design faster than advanced ones.
    pub eda_productivity: f64,
    /// Energy per RDL metal layer per unit area, `EPLA_RDL(p)`
    /// (0.05 – 0.2 kWh/cm² per layer).
    pub epla_rdl: EnergyPerArea,
    /// Energy per silicon-bridge metal layer per unit area, `EPLA_bridge(p)`
    /// (0.1 – 0.35 kWh/cm² per layer).
    pub epla_bridge: EnergyPerArea,
    /// Nominal supply voltage at this node.
    pub vdd: Voltage,
    /// Carbon footprint per unit area of raw silicon wafer (used to account
    /// for the wasted wafer periphery, `CFPA_Si` in Eq. (5)).
    pub silicon_wafer_cfp: CarbonPerArea,
}

/// Defect density in defects per cm² — a tiny newtype so the yield crate can
/// take it by type rather than bare `f64`.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
#[serde(transparent)]
pub struct DefectDensity(f64);

impl DefectDensity {
    /// Create a defect density from defects per cm².
    ///
    /// Negative values are clamped to zero.
    #[inline]
    pub fn from_per_cm2(d: f64) -> Self {
        Self(d.max(0.0))
    }

    /// Defects per cm².
    #[inline]
    pub fn per_cm2(self) -> f64 {
        self.0
    }

    /// Defects per mm².
    #[inline]
    pub fn per_mm2(self) -> f64 {
        self.0 / 100.0
    }
}

impl fmt::Display for DefectDensity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} /cm²", self.0)
    }
}

impl NodeParams {
    /// Transistor density of the given design type at this node.
    pub fn transistor_density(&self, design_type: DesignType) -> TransistorDensity {
        match design_type {
            DesignType::Logic => self.logic_density,
            DesignType::Memory => self.memory_density,
            DesignType::Analog => self.analog_density,
        }
    }

    /// Die area needed for `transistors` devices of the given design type at
    /// this node: `Adie(d, p) = NT / DT(d, p)` (§III-C(1) of the paper).
    pub fn area_for_transistors(&self, design_type: DesignType, transistors: f64) -> Area {
        self.transistor_density(design_type).area_for(transistors)
    }

    /// Number of transistors that fit in `area` for the given design type.
    pub fn transistors_for_area(&self, design_type: DesignType, area: Area) -> f64 {
        self.transistor_density(design_type).transistors_per_mm2() * area.mm2()
    }

    /// Start building a modified copy of these parameters.
    pub fn to_builder(&self) -> NodeParamsBuilder {
        NodeParamsBuilder {
            params: self.clone(),
        }
    }

    /// Check every parameter against its physical range: transistor
    /// densities, EPA, the EPLAs, `vdd` and `clustering_alpha` finite and
    /// greater than 0; `defect_density` and the gas, material and
    /// silicon-wafer footprints finite and ≥ 0; `equipment_derate` and
    /// `eda_productivity` in (0, 1]. Nothing is formatted unless a value is
    /// refused.
    ///
    /// # Errors
    ///
    /// [`TechDbError::InvalidDatabase`] for the first value out of its
    /// range, its text starting with the value's path
    /// (`nodes[5].defect_density`).
    pub fn validate(&self) -> Result<(), TechDbError> {
        use Range::{Efficiency, NonNegative, Positive};
        let node = self.node.nm();
        for (range, field, value) in [
            (NonNegative, "defect_density", self.defect_density.per_cm2()),
            (Positive, "clustering_alpha", self.clustering_alpha),
            (Positive, "logic_density", self.logic_density.mtr_per_mm2()),
            (
                Positive,
                "memory_density",
                self.memory_density.mtr_per_mm2(),
            ),
            (
                Positive,
                "analog_density",
                self.analog_density.mtr_per_mm2(),
            ),
            (Positive, "epa", self.epa.kwh_per_cm2()),
            (NonNegative, "gas_cfp", self.gas_cfp.kg_per_cm2()),
            (NonNegative, "material_cfp", self.material_cfp.kg_per_cm2()),
            (Efficiency, "equipment_derate", self.equipment_derate),
            (Efficiency, "eda_productivity", self.eda_productivity),
            (Positive, "epla_rdl", self.epla_rdl.kwh_per_cm2()),
            (Positive, "epla_bridge", self.epla_bridge.kwh_per_cm2()),
            (Positive, "vdd", self.vdd.volts()),
            (
                NonNegative,
                "silicon_wafer_cfp",
                self.silicon_wafer_cfp.kg_per_cm2(),
            ),
        ] {
            range.check(format_args!("nodes[{node}].{field}"), value)?;
        }
        Ok(())
    }
}

/// Builder for overriding individual fields of a [`NodeParams`].
///
/// ```
/// use ecochip_techdb::{TechDb, TechNode};
/// let db = TechDb::default();
/// let tweaked = db
///     .node(TechNode::N7)?
///     .to_builder()
///     .defect_density(0.1)
///     .build()?;
/// assert!((tweaked.defect_density.per_cm2() - 0.1).abs() < 1e-12);
/// # Ok::<(), ecochip_techdb::TechDbError>(())
/// ```
#[derive(Debug, Clone)]
pub struct NodeParamsBuilder {
    params: NodeParams,
}

impl NodeParamsBuilder {
    /// Override the defect density (defects/cm², must be ≥ 0 and finite).
    pub fn defect_density(mut self, per_cm2: f64) -> Self {
        self.params.defect_density = DefectDensity::from_per_cm2(per_cm2);
        self
    }

    /// Override the yield clustering parameter α.
    pub fn clustering_alpha(mut self, alpha: f64) -> Self {
        self.params.clustering_alpha = alpha;
        self
    }

    /// Override the logic transistor density (MTr/mm²).
    pub fn logic_density(mut self, mtr_per_mm2: f64) -> Self {
        self.params.logic_density = TransistorDensity::from_mtr_per_mm2(mtr_per_mm2);
        self
    }

    /// Override the memory transistor density (MTr/mm²).
    pub fn memory_density(mut self, mtr_per_mm2: f64) -> Self {
        self.params.memory_density = TransistorDensity::from_mtr_per_mm2(mtr_per_mm2);
        self
    }

    /// Override the analog transistor density (MTr/mm²).
    pub fn analog_density(mut self, mtr_per_mm2: f64) -> Self {
        self.params.analog_density = TransistorDensity::from_mtr_per_mm2(mtr_per_mm2);
        self
    }

    /// Override the manufacturing energy per area (kWh/cm²).
    pub fn epa(mut self, kwh_per_cm2: f64) -> Self {
        self.params.epa = EnergyPerArea::from_kwh_per_cm2(kwh_per_cm2);
        self
    }

    /// Override the process-gas footprint (kg CO₂e/cm²).
    pub fn gas_cfp(mut self, kg_per_cm2: f64) -> Self {
        self.params.gas_cfp = CarbonPerArea::from_kg_per_cm2(kg_per_cm2);
        self
    }

    /// Override the material-sourcing footprint (kg CO₂e/cm²).
    pub fn material_cfp(mut self, kg_per_cm2: f64) -> Self {
        self.params.material_cfp = CarbonPerArea::from_kg_per_cm2(kg_per_cm2);
        self
    }

    /// Override the equipment-efficiency derate (must end up in (0, 1]).
    pub fn equipment_derate(mut self, derate: f64) -> Self {
        self.params.equipment_derate = derate;
        self
    }

    /// Override the EDA productivity factor (must end up in (0, 1]).
    pub fn eda_productivity(mut self, eta: f64) -> Self {
        self.params.eda_productivity = eta;
        self
    }

    /// Override the RDL energy per layer per area (kWh/cm²).
    pub fn epla_rdl(mut self, kwh_per_cm2: f64) -> Self {
        self.params.epla_rdl = EnergyPerArea::from_kwh_per_cm2(kwh_per_cm2);
        self
    }

    /// Override the silicon-bridge energy per layer per area (kWh/cm²).
    pub fn epla_bridge(mut self, kwh_per_cm2: f64) -> Self {
        self.params.epla_bridge = EnergyPerArea::from_kwh_per_cm2(kwh_per_cm2);
        self
    }

    /// Override the nominal supply voltage (V).
    pub fn vdd(mut self, volts: f64) -> Self {
        self.params.vdd = Voltage::from_volts(volts);
        self
    }

    /// Override the raw-silicon wafer footprint (kg CO₂e/cm²).
    pub fn silicon_wafer_cfp(mut self, kg_per_cm2: f64) -> Self {
        self.params.silicon_wafer_cfp = CarbonPerArea::from_kg_per_cm2(kg_per_cm2);
        self
    }

    /// Validate and return the parameters.
    ///
    /// # Errors
    ///
    /// [`TechDbError::InvalidDatabase`] when a value is outside its
    /// physical range (see [`NodeParams::validate`]).
    pub fn build(self) -> Result<NodeParams, TechDbError> {
        self.params.validate()?;
        Ok(self.params)
    }
}

/// Raw default table: one row per node.
///
/// Columns: node, D0 (/cm²), logic / memory / analog densities (MTr/mm²),
/// EPA (kWh/cm²), Cgas (kg/cm²), ηeq, ηEDA, EPLA_RDL, EPLA_bridge (kWh/cm²
/// per layer), Vdd (V).
const DEFAULT_ROWS: [ParamRow; 14] = [
    // node,      D0, logic, memory, analog, EPA, Cgas,  ηeq,  ηEDA, RDL,   bridge, Vdd
    //
    // The memory and analog columns are deliberately much flatter than the
    // logic column across the 5–16 nm range: SRAM bit cells and analog
    // devices have essentially stopped scaling, which is the premise of the
    // paper's technology mix-and-match argument.
    (
        TechNode::N3,
        0.30,
        215.0,
        280.0,
        40.0,
        3.50,
        0.50,
        1.00,
        0.50,
        0.200,
        0.350,
        0.70,
    ),
    (
        TechNode::N5,
        0.27,
        138.0,
        250.0,
        38.0,
        3.10,
        0.45,
        0.98,
        0.58,
        0.195,
        0.345,
        0.72,
    ),
    (
        TechNode::N7,
        0.24,
        91.0,
        225.0,
        35.0,
        2.75,
        0.40,
        0.95,
        0.65,
        0.190,
        0.340,
        0.75,
    ),
    (
        TechNode::N8,
        0.22,
        61.0,
        215.0,
        34.0,
        2.50,
        0.37,
        0.93,
        0.68,
        0.185,
        0.330,
        0.77,
    ),
    (
        TechNode::N10,
        0.20,
        55.0,
        205.0,
        33.0,
        2.35,
        0.35,
        0.92,
        0.71,
        0.180,
        0.320,
        0.78,
    ),
    (
        TechNode::N12,
        0.18,
        44.0,
        195.0,
        31.5,
        2.15,
        0.32,
        0.90,
        0.74,
        0.172,
        0.305,
        0.80,
    ),
    (
        TechNode::N14,
        0.16,
        32.0,
        185.0,
        30.0,
        2.00,
        0.30,
        0.88,
        0.77,
        0.165,
        0.290,
        0.82,
    ),
    (
        TechNode::N16,
        0.15,
        28.0,
        175.0,
        29.0,
        1.90,
        0.28,
        0.87,
        0.79,
        0.158,
        0.275,
        0.84,
    ),
    (
        TechNode::N22,
        0.12,
        16.5,
        150.0,
        26.0,
        1.60,
        0.22,
        0.83,
        0.84,
        0.140,
        0.240,
        0.90,
    ),
    (
        TechNode::N28,
        0.11,
        12.0,
        120.0,
        23.0,
        1.45,
        0.20,
        0.80,
        0.87,
        0.120,
        0.210,
        0.95,
    ),
    (
        TechNode::N40,
        0.09,
        7.0,
        70.0,
        18.0,
        1.20,
        0.16,
        0.76,
        0.92,
        0.090,
        0.160,
        1.05,
    ),
    (
        TechNode::N65,
        0.08,
        3.3,
        35.0,
        12.0,
        0.95,
        0.12,
        0.70,
        1.00,
        0.065,
        0.120,
        1.20,
    ),
    (
        TechNode::N90,
        0.075,
        1.6,
        20.0,
        8.0,
        0.85,
        0.11,
        0.68,
        1.00,
        0.055,
        0.110,
        1.35,
    ),
    (
        TechNode::N130,
        0.07,
        0.8,
        10.0,
        5.0,
        0.80,
        0.10,
        0.65,
        1.00,
        0.050,
        0.100,
        1.50,
    ),
];

/// Carbon footprint of material sourcing, `Cmaterial` (Table I fixes 0.5 kg/cm²).
const MATERIAL_CFP_KG_PER_CM2: f64 = 0.5;

/// Carbon footprint per area of the wasted wafer periphery, used to price the
/// wastage term of Eq. (5). The unusable edge area is still carried through
/// the full process flow (every lithography step patterns the whole wafer),
/// so it is charged roughly half of a processed die's per-area footprint:
/// raw wafer production plus shared processing, without test and packaging.
const SILICON_WAFER_CFP_KG_PER_CM2: f64 = 1.0;

/// One raw row of [`DEFAULT_ROWS`], in the column order documented there.
type ParamRow = (
    TechNode,
    f64,
    f64,
    f64,
    f64,
    f64,
    f64,
    f64,
    f64,
    f64,
    f64,
    f64,
);

fn default_params_for(row: &ParamRow) -> NodeParams {
    let (node, d0, logic, memory, analog, epa, gas, eta_eq, eta_eda, epla_rdl, epla_bridge, vdd) =
        *row;
    NodeParams {
        node,
        defect_density: DefectDensity::from_per_cm2(d0),
        clustering_alpha: 3.0,
        logic_density: TransistorDensity::from_mtr_per_mm2(logic),
        memory_density: TransistorDensity::from_mtr_per_mm2(memory),
        analog_density: TransistorDensity::from_mtr_per_mm2(analog),
        epa: EnergyPerArea::from_kwh_per_cm2(epa),
        gas_cfp: CarbonPerArea::from_kg_per_cm2(gas),
        material_cfp: CarbonPerArea::from_kg_per_cm2(MATERIAL_CFP_KG_PER_CM2),
        equipment_derate: eta_eq,
        eda_productivity: eta_eda,
        epla_rdl: EnergyPerArea::from_kwh_per_cm2(epla_rdl),
        epla_bridge: EnergyPerArea::from_kwh_per_cm2(epla_bridge),
        vdd: Voltage::from_volts(vdd),
        silicon_wafer_cfp: CarbonPerArea::from_kg_per_cm2(SILICON_WAFER_CFP_KG_PER_CM2),
    }
}

/// One slot per [`TechNode`], at the node's ordinal: most advanced first.
type NodeTable = [Option<NodeParams>; TechNode::ALL.len()];

/// Every node, at its own ordinal: the keys [`TechDb::iter`] lends out.
static NODES: [TechNode; TechNode::ALL.len()] = TechNode::ALL;

/// The technology-node parameter database.
///
/// The [`Default`] database contains an entry for every [`TechNode`] with the
/// values of Table I. Entries can be replaced or added through
/// [`TechDbBuilder`], and the whole database serializes to/from JSON so that
/// users with access to proprietary fab data can supply their own numbers (the
/// paper's validation section emphasises that accuracy is bounded by input
/// accuracy).
///
/// Entries sit in a table indexed by node, so [`TechDb::node`] is one
/// index. The JSON form is an object keyed by node name
/// (`{"nodes":{"3":{…},…}}`), which is only built or read at the serde
/// boundary.
#[derive(Debug, Clone, PartialEq, Deserialize)]
#[serde(try_from = "wire::TechDb")]
pub struct TechDb {
    nodes: Box<NodeTable>,
}

impl TechDb {
    /// Parameters of a node.
    ///
    /// # Errors
    ///
    /// Returns [`TechDbError::MissingNode`] when the database has no entry for
    /// the node.
    pub fn node(&self, node: TechNode) -> Result<&NodeParams, TechDbError> {
        self.nodes[node as usize]
            .as_ref()
            .ok_or(TechDbError::MissingNode(node.nm()))
    }

    /// Whether the database contains an entry for `node`.
    pub fn contains(&self, node: TechNode) -> bool {
        self.nodes[node as usize].is_some()
    }

    /// Iterator over all `(node, params)` entries, most advanced node first.
    pub fn iter(&self) -> impl Iterator<Item = (&TechNode, &NodeParams)> {
        NODES
            .iter()
            .zip(self.nodes.iter())
            .filter_map(|(node, params)| Some((node, params.as_ref()?)))
    }

    /// Number of node entries.
    pub fn len(&self) -> usize {
        self.nodes.iter().flatten().count()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.iter().all(Option::is_none)
    }

    /// Check every node's parameters with [`NodeParams::validate`]. A
    /// database decoded from a file is only shape-checked, so front ends
    /// call this where one enters.
    ///
    /// # Errors
    ///
    /// [`TechDbError::InvalidDatabase`] for the first value out of its
    /// range, its text starting with the value's path
    /// (`nodes[5].defect_density`).
    pub fn validate(&self) -> Result<(), TechDbError> {
        self.nodes
            .iter()
            .flatten()
            .try_for_each(NodeParams::validate)
    }

    /// Start building a modified copy of this database.
    pub fn to_builder(&self) -> TechDbBuilder {
        TechDbBuilder {
            nodes: self.nodes.clone(),
        }
    }

    /// Convenience: die area for a transistor count of a given type at a node.
    ///
    /// # Errors
    ///
    /// Returns [`TechDbError::MissingNode`] for unknown nodes.
    pub fn area_for_transistors(
        &self,
        node: TechNode,
        design_type: DesignType,
        transistors: f64,
    ) -> Result<Area, TechDbError> {
        Ok(self
            .node(node)?
            .area_for_transistors(design_type, transistors))
    }

    /// Scale an area known at `from` node to the equivalent area at `to` node,
    /// holding the transistor count constant — the paper's area-scaling model.
    ///
    /// # Errors
    ///
    /// Returns [`TechDbError::MissingNode`] for unknown nodes.
    pub fn scale_area(
        &self,
        design_type: DesignType,
        area: Area,
        from: TechNode,
        to: TechNode,
    ) -> Result<Area, TechDbError> {
        let from_density = self.node(from)?.transistor_density(design_type);
        let to_density = self.node(to)?.transistor_density(design_type);
        Ok(Area::from_mm2(
            area.mm2() * from_density.mtr_per_mm2() / to_density.mtr_per_mm2(),
        ))
    }
}

impl Default for TechDb {
    fn default() -> Self {
        DEFAULT_ROWS
            .iter()
            .fold(TechDbBuilder::new(), |db, row| {
                db.insert(default_params_for(row))
            })
            .build()
    }
}

impl Serialize for TechDb {
    fn write_json(&self, out: &mut String) -> Result<(), serde::Error> {
        let nodes: BTreeMap<&TechNode, &NodeParams> = self.iter().collect();
        out.push_str("{\"nodes\":");
        nodes.write_json(out)?;
        out.push('}');
        Ok(())
    }
}

/// The JSON form of a [`TechDb`]: its entries keyed by node.
mod wire {
    use std::collections::BTreeMap;

    use serde::Deserialize;

    use crate::node::TechNode;
    use crate::params::NodeParams;

    /// Named as the type it decodes to, so decode errors name `TechDb`.
    #[derive(Deserialize)]
    pub(super) struct TechDb {
        pub(super) nodes: BTreeMap<TechNode, NodeParams>,
    }
}

impl From<wire::TechDb> for TechDb {
    /// Each entry lands at the node of its key.
    fn from(wire: wire::TechDb) -> Self {
        let mut nodes = Box::<NodeTable>::default();
        for (node, params) in wire.nodes {
            nodes[node as usize] = Some(params);
        }
        Self { nodes }
    }
}

/// Builder for a customised [`TechDb`].
#[derive(Debug, Clone, Default)]
pub struct TechDbBuilder {
    nodes: Box<NodeTable>,
}

impl TechDbBuilder {
    /// Create an empty builder (no node entries).
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert or replace the entry for `params.node`.
    pub fn insert(mut self, params: NodeParams) -> Self {
        let at = params.node as usize;
        self.nodes[at] = Some(params);
        self
    }

    /// Finish building.
    pub fn build(self) -> TechDb {
        TechDb { nodes: self.nodes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> TechDb {
        TechDb::default()
    }

    #[test]
    fn default_db_covers_all_nodes() {
        let db = db();
        assert_eq!(db.len(), TechNode::ALL.len());
        assert!(!db.is_empty());
        for node in TechNode::ALL {
            assert!(db.contains(node));
            assert_eq!(db.node(node).unwrap().node, node);
        }
    }

    #[test]
    fn defect_density_decreases_with_maturity() {
        let db = db();
        let mut prev = f64::INFINITY;
        for node in TechNode::ALL {
            let d = db.node(node).unwrap().defect_density.per_cm2();
            assert!(d <= prev, "defect density must not increase with maturity");
            assert!((0.07..=0.30).contains(&d), "Table I range");
            prev = d;
        }
    }

    #[test]
    fn logic_density_decreases_with_maturity() {
        let db = db();
        let mut prev = f64::INFINITY;
        for node in TechNode::ALL {
            let d = db.node(node).unwrap().logic_density.mtr_per_mm2();
            assert!(d < prev);
            prev = d;
        }
    }

    #[test]
    fn epa_within_table_i_range_and_monotone() {
        let db = db();
        let mut prev = f64::INFINITY;
        for node in TechNode::ALL {
            let epa = db.node(node).unwrap().epa.kwh_per_cm2();
            assert!((0.8..=3.5).contains(&epa));
            assert!(epa <= prev);
            prev = epa;
        }
    }

    #[test]
    fn derates_and_productivity_in_unit_interval() {
        let db = db();
        for node in TechNode::ALL {
            let p = db.node(node).unwrap();
            assert!(p.equipment_derate > 0.0 && p.equipment_derate <= 1.0);
            assert!(p.eda_productivity > 0.0 && p.eda_productivity <= 1.0);
            assert!((0.05..=0.2 + 1e-9).contains(&p.epla_rdl.kwh_per_cm2()));
            assert!((0.1..=0.35 + 1e-9).contains(&p.epla_bridge.kwh_per_cm2()));
            assert!((0.7..=1.8).contains(&p.vdd.volts()));
            assert!((0.1..=0.5).contains(&p.gas_cfp.kg_per_cm2()));
            assert!((p.material_cfp.kg_per_cm2() - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn memory_scales_slower_than_logic() {
        // The ratio of memory to logic density should grow as nodes advance:
        // that is precisely "SRAM does not scale".
        let db = db();
        let ratio = |n: TechNode| {
            let p = db.node(n).unwrap();
            p.memory_density.mtr_per_mm2() / p.logic_density.mtr_per_mm2()
        };
        assert!(ratio(TechNode::N7) < ratio(TechNode::N14) * 1.5);
        // logic improves faster going 14nm -> 7nm than memory does.
        let p7 = db.node(TechNode::N7).unwrap();
        let p14 = db.node(TechNode::N14).unwrap();
        let logic_gain = p7.logic_density.mtr_per_mm2() / p14.logic_density.mtr_per_mm2();
        let memory_gain = p7.memory_density.mtr_per_mm2() / p14.memory_density.mtr_per_mm2();
        let analog_gain = p7.analog_density.mtr_per_mm2() / p14.analog_density.mtr_per_mm2();
        assert!(logic_gain > memory_gain);
        assert!(memory_gain > analog_gain);
    }

    #[test]
    fn area_for_transistors_matches_density() {
        let db = db();
        let p = db.node(TechNode::N7).unwrap();
        let area = p.area_for_transistors(DesignType::Logic, 91.0e6);
        assert!((area.mm2() - 1.0).abs() < 1e-9);
        let count = p.transistors_for_area(DesignType::Logic, area);
        assert!((count - 91.0e6).abs() < 1.0);
        let via_db = db
            .area_for_transistors(TechNode::N7, DesignType::Logic, 91.0e6)
            .unwrap();
        assert_eq!(area, via_db);
    }

    #[test]
    fn scale_area_logic_shrinks_and_analog_barely_moves() {
        let db = db();
        let a = Area::from_mm2(100.0);
        let logic_7 = db
            .scale_area(DesignType::Logic, a, TechNode::N14, TechNode::N7)
            .unwrap();
        let analog_7 = db
            .scale_area(DesignType::Analog, a, TechNode::N14, TechNode::N7)
            .unwrap();
        assert!(logic_7.mm2() < 45.0, "logic should shrink ~2.8x");
        assert!(analog_7.mm2() > 75.0, "analog should barely shrink");
        // Scaling to the same node is the identity.
        let same = db
            .scale_area(DesignType::Logic, a, TechNode::N14, TechNode::N14)
            .unwrap();
        assert!((same.mm2() - a.mm2()).abs() < 1e-9);
    }

    #[test]
    fn missing_node_error() {
        let empty = TechDbBuilder::new().build();
        assert!(matches!(
            empty.node(TechNode::N7),
            Err(TechDbError::MissingNode(7))
        ));
        assert!(empty.is_empty());
    }

    #[test]
    fn builder_overrides_are_applied_and_validated() {
        let db = db();
        let p = db.node(TechNode::N7).unwrap().clone();
        let tweaked = p
            .to_builder()
            .defect_density(0.1)
            .epa(1.5)
            .vdd(0.8)
            .eda_productivity(0.9)
            .equipment_derate(0.5)
            .logic_density(100.0)
            .memory_density(200.0)
            .analog_density(40.0)
            .gas_cfp(0.2)
            .material_cfp(0.5)
            .epla_rdl(0.1)
            .epla_bridge(0.2)
            .silicon_wafer_cfp(0.3)
            .clustering_alpha(4.0)
            .build()
            .unwrap();
        assert!((tweaked.defect_density.per_cm2() - 0.1).abs() < 1e-12);
        assert!((tweaked.epa.kwh_per_cm2() - 1.5).abs() < 1e-12);
        assert!((tweaked.clustering_alpha - 4.0).abs() < 1e-12);

        assert!(p.to_builder().equipment_derate(0.0).build().is_err());
        assert!(p.to_builder().eda_productivity(1.5).build().is_err());
        assert!(p.to_builder().clustering_alpha(-1.0).build().is_err());
        assert!(p.to_builder().epa(-2.0).build().is_err());
        assert!(p.to_builder().vdd(f64::NAN).build().is_err());
    }

    #[test]
    fn techdb_builder_replaces_entries() {
        let db = db();
        let custom = db
            .node(TechNode::N7)
            .unwrap()
            .to_builder()
            .defect_density(0.12)
            .build()
            .unwrap();
        let new_db = db.to_builder().insert(custom).build();
        assert!((new_db.node(TechNode::N7).unwrap().defect_density.per_cm2() - 0.12).abs() < 1e-12);
        // Other nodes untouched.
        assert_eq!(new_db.node(TechNode::N65), db.node(TechNode::N65));
        assert_eq!(new_db.len(), db.len());
    }

    #[test]
    fn serde_round_trip() {
        let db = db();
        let json = serde_json::to_string(&db).unwrap();
        let back: TechDb = serde_json::from_str(&json).unwrap();
        assert_eq!(db, back);
    }

    #[test]
    fn defect_density_display_and_clamp() {
        let d = DefectDensity::from_per_cm2(-0.5);
        assert_eq!(d.per_cm2(), 0.0);
        let d = DefectDensity::from_per_cm2(0.2);
        assert!((d.per_mm2() - 0.002).abs() < 1e-15);
        assert!(!d.to_string().is_empty());
    }

    #[test]
    fn validate_accepts_the_default_database() {
        assert_eq!(db().validate(), Ok(()));
        assert_eq!(TechDbBuilder::new().build().validate(), Ok(()));
    }

    #[test]
    fn validate_names_the_first_value_out_of_range() {
        // `DefectDensity` clamps its constructor, so a negative density
        // can only arrive decoded, as from a `--techdb` file.
        type Edit = fn(&mut NodeParams);
        let edits: [(Edit, &str); 6] = [
            (
                |p| p.defect_density = serde_json::from_str("-0.5").unwrap(),
                "nodes[5].defect_density must be finite and ≥ 0, got -0.5",
            ),
            (
                |p| p.logic_density = TransistorDensity::from_mtr_per_mm2(0.0),
                "nodes[5].logic_density must be finite and > 0, got 0",
            ),
            (
                |p| p.vdd = Voltage::from_volts(f64::NAN),
                "nodes[5].vdd must be finite and > 0, got NaN",
            ),
            (
                |p| p.gas_cfp = CarbonPerArea::from_kg_per_cm2(f64::INFINITY),
                "nodes[5].gas_cfp must be finite and ≥ 0, got inf",
            ),
            (
                |p| p.equipment_derate = 1.5,
                "nodes[5].equipment_derate must be in (0, 1], got 1.5",
            ),
            (
                |p| p.eda_productivity = 0.0,
                "nodes[5].eda_productivity must be in (0, 1], got 0",
            ),
        ];
        for (edit, text) in edits {
            let mut params = db().node(TechNode::N5).unwrap().clone();
            edit(&mut params);
            let refused = db().to_builder().insert(params).build().validate();
            assert_eq!(refused, Err(TechDbError::InvalidDatabase(text.to_owned())));
        }
        // Zero footprints are allowed, decoded or built: a fab may offset
        // its gases.
        let params = db().node(TechNode::N5).unwrap().to_builder();
        let params = params.gas_cfp(0.0).silicon_wafer_cfp(0.0).build().unwrap();
        assert_eq!(db().to_builder().insert(params).build().validate(), Ok(()));
    }

    #[test]
    fn every_node_has_its_own_slot() {
        for (at, node) in NODES.iter().enumerate() {
            assert_eq!(*node as usize, at);
        }
        // A missing node reads as missing, the others are untouched.
        let params = db().node(TechNode::N7).unwrap().clone();
        let sparse = TechDbBuilder::new().insert(params.clone()).build();
        assert_eq!(sparse.node(TechNode::N7), Ok(&params));
        assert_eq!(sparse.node(TechNode::N5), Err(TechDbError::MissingNode(5)));
        assert!(sparse.contains(TechNode::N7) && !sparse.contains(TechNode::N130));
        assert_eq!((sparse.len(), sparse.is_empty()), (1, false));
        assert!(TechDbBuilder::new().build().is_empty());
        // The JSON form keys entries by node; an empty database is `{}`.
        let json = serde_json::to_string(&sparse).unwrap();
        assert!(json.starts_with("{\"nodes\":{\"7\":{\"node\":7,"), "{json}");
        assert_eq!(serde_json::from_str::<TechDb>(&json).unwrap(), sparse);
        let empty = serde_json::to_string(&TechDbBuilder::new().build()).unwrap();
        assert_eq!(empty, "{\"nodes\":{}}");
    }

    #[test]
    fn decoding_keeps_the_error_texts_of_the_map_form() {
        for (text, refusal) in [
            ("{}", "missing field `nodes` in TechDb"),
            ("[]", "expected object while deserializing TechDb"),
            ("{\"nodes\":[]}", "TechDb.nodes: expected object, got array"),
            (
                "{\"nodes\":{\"6\":{}}}",
                "TechDb.nodes: expected integer, got string",
            ),
            (
                "{\"nodes\":{\"7\":{}}}",
                "TechDb.nodes: missing field `node` in NodeParams",
            ),
            (
                "{\"nodes\":{\"7\":5}}",
                "TechDb.nodes: expected object while deserializing NodeParams",
            ),
        ] {
            let err = serde_json::from_str::<TechDb>(text).unwrap_err();
            assert_eq!(err.to_string(), refusal, "{text}");
        }
    }

    #[test]
    fn iter_is_ordered_most_advanced_first() {
        let db = db();
        let nodes: Vec<u32> = db.iter().map(|(n, _)| n.nm()).collect();
        let mut sorted = nodes.clone();
        sorted.sort_unstable();
        assert_eq!(nodes, sorted);
    }
}

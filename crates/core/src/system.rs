//! Architectural description of a (possibly heterogeneous) system.

use std::fmt;

use serde::{Deserialize, Serialize};

use ecochip_design::VolumeScenario;
use ecochip_packaging::PackagingArchitecture;
use ecochip_power::UsageProfile;
use ecochip_techdb::{Area, DesignType, Range, TechDb, TechDbError, TechNode, TimeSpan};

use crate::error::EcoChipError;

/// How a chiplet's size is specified.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", content = "value", rename_all = "snake_case")]
pub enum ChipletSize {
    /// A transistor budget; the area follows from the implementation node's
    /// transistor density (the paper's primary input).
    Transistors(f64),
    /// A known silicon area at a reference node (e.g. from a die-shot
    /// analysis); the area is rescaled when the chiplet moves to another node.
    AreaAtNode {
        /// The measured area.
        area: Area,
        /// The node at which the area was measured.
        node: TechNode,
    },
}

/// One chiplet (or the single die of a monolithic SoC).
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct Chiplet {
    /// Name of the chiplet (used in reports).
    pub name: String,
    /// Functional class — controls the area-scaling model.
    pub design_type: DesignType,
    /// Technology node the chiplet is implemented in.
    pub node: TechNode,
    /// Size specification.
    pub size: ChipletSize,
}

impl Chiplet {
    /// Create a chiplet.
    pub fn new(
        name: impl Into<String>,
        design_type: DesignType,
        node: TechNode,
        size: ChipletSize,
    ) -> Self {
        Self {
            name: name.into(),
            design_type,
            node,
            size,
        }
    }

    /// The chiplet's silicon area in its implementation node.
    ///
    /// # Errors
    ///
    /// Returns [`TechDbError::MissingNode`] when a required node is missing
    /// from the database.
    pub fn area(&self, db: &TechDb) -> Result<Area, TechDbError> {
        match self.size {
            ChipletSize::Transistors(n) => db.area_for_transistors(self.node, self.design_type, n),
            ChipletSize::AreaAtNode { area, node } => {
                db.scale_area(self.design_type, area, node, self.node)
            }
        }
    }

    /// The chiplet's transistor count.
    ///
    /// # Errors
    ///
    /// Returns [`TechDbError::MissingNode`] when a required node is missing
    /// from the database.
    pub fn transistors(&self, db: &TechDb) -> Result<f64, TechDbError> {
        match self.size {
            ChipletSize::Transistors(n) => Ok(n),
            ChipletSize::AreaAtNode { area, node } => {
                Ok(db.node(node)?.transistors_for_area(self.design_type, area))
            }
        }
    }

    /// The same chiplet re-targeted to a different technology node (its size
    /// specification is preserved, so the area rescales automatically).
    pub fn retargeted(&self, node: TechNode) -> Chiplet {
        Chiplet {
            node,
            ..self.clone()
        }
    }
}

// `clone_from` reuses the name's buffer, so refilling a sweep point's
// system allocates nothing. Both methods name every field, so a new one
// does not compile until it is cloned here.
impl Clone for Chiplet {
    fn clone(&self) -> Self {
        let Self {
            name,
            design_type,
            node,
            size,
        } = self;
        Self {
            name: name.clone(),
            design_type: *design_type,
            node: *node,
            size: *size,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let Self {
            name,
            design_type,
            node,
            size,
        } = source;
        self.name.clone_from(name);
        self.design_type = *design_type;
        self.node = *node;
        self.size = *size;
    }
}

impl fmt::Display for Chiplet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} @ {})", self.name, self.design_type, self.node)
    }
}

/// A complete system description: the input to [`crate::EcoChip::estimate`].
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct System {
    /// Name of the system (used in reports).
    pub name: String,
    /// The chiplets composing the system (a single entry models a monolithic
    /// SoC).
    pub chiplets: Vec<Chiplet>,
    /// Packaging architecture integrating the chiplets.
    pub packaging: PackagingArchitecture,
    /// Usage profile for operational CFP.
    pub usage: UsageProfile,
    /// Deployment lifetime.
    pub lifetime: TimeSpan,
    /// Manufacturing / shipping volumes for design-CFP amortisation.
    pub volumes: VolumeScenario,
}

impl System {
    /// Start building a system.
    pub fn builder(name: impl Into<String>) -> SystemBuilder {
        SystemBuilder::new(name)
    }

    /// Whether the system is a single monolithic die.
    pub fn is_monolithic(&self) -> bool {
        self.chiplets.len() == 1
    }

    /// Number of chiplets.
    pub fn chiplet_count(&self) -> usize {
        self.chiplets.len()
    }

    /// Total silicon area of all chiplets (without communication overheads).
    ///
    /// # Errors
    ///
    /// Returns [`TechDbError::MissingNode`] when a required node is missing.
    pub fn silicon_area(&self, db: &TechDb) -> Result<Area, TechDbError> {
        let mut total = Area::ZERO;
        for c in &self.chiplets {
            total += c.area(db)?;
        }
        Ok(total)
    }

    /// Total transistor count across all chiplets.
    ///
    /// # Errors
    ///
    /// Returns [`TechDbError::MissingNode`] when a required node is missing.
    pub fn total_transistors(&self, db: &TechDb) -> Result<f64, TechDbError> {
        let mut total = 0.0;
        for c in &self.chiplets {
            total += c.transistors(db)?;
        }
        Ok(total)
    }

    /// The implementation node of each chiplet, in order.
    pub fn chiplet_nodes(&self) -> Vec<TechNode> {
        self.chiplets.iter().map(|c| c.node).collect()
    }

    /// A copy of the system with the chiplet at `index` re-targeted to `node`.
    ///
    /// # Errors
    ///
    /// Returns [`EcoChipError::InvalidSystem`] when `index` is out of range.
    pub fn with_chiplet_node(&self, index: usize, node: TechNode) -> Result<System, EcoChipError> {
        if index >= self.chiplets.len() {
            return Err(EcoChipError::InvalidSystem(format!(
                "chiplet index {index} out of range (system has {} chiplets)",
                self.chiplets.len()
            )));
        }
        let mut copy = self.clone();
        copy.chiplets[index] = copy.chiplets[index].retargeted(node);
        Ok(copy)
    }

    /// A copy of the system with a different packaging architecture.
    pub fn with_packaging(&self, packaging: PackagingArchitecture) -> System {
        System {
            packaging,
            ..self.clone()
        }
    }

    /// A copy of the system with different volumes.
    pub fn with_volumes(&self, volumes: VolumeScenario) -> System {
        System {
            volumes,
            ..self.clone()
        }
    }

    /// A copy of the system with a different lifetime.
    pub fn with_lifetime(&self, lifetime: TimeSpan) -> System {
        System {
            lifetime,
            ..self.clone()
        }
    }

    /// Check every input against its physical range (Table I); every front
    /// end calls this before it estimates.
    ///
    /// # Errors
    ///
    /// [`EcoChipError::InvalidSystem`] for the first failing rule, its text
    /// starting with the field path (`lifetime`, `chiplets[0].size`, …).
    pub fn validate(&self) -> Result<(), EcoChipError> {
        use Range::{AtLeastOne, Efficiency, Fraction, NonNegative, Positive};
        if self.chiplets.is_empty() {
            return Err(EcoChipError::InvalidSystem(
                "chiplets: a system needs at least one chiplet".to_owned(),
            ));
        }
        for (at, chiplet) in self.chiplets.iter().enumerate() {
            let size = match chiplet.size {
                ChipletSize::Transistors(count) => count,
                ChipletSize::AreaAtNode { area, .. } => area.value(),
            };
            Positive.check(format_args!("chiplets[{at}].size"), size)?;
        }
        Positive.check("lifetime", self.lifetime.value())?;
        // Volumes are counts: `as f64` is exact far past any real volume.
        AtLeastOne.check("volumes.chiplet_volume", self.volumes.chiplet_volume as f64)?;
        AtLeastOne.check("volumes.system_volume", self.volumes.system_volume as f64)?;
        match self.usage {
            UsageProfile::Battery {
                battery_wh: wh,
                charges_per_year: n,
                charger_efficiency: eff,
            } => {
                NonNegative.check("usage.battery_wh", wh)?;
                NonNegative.check("usage.charges_per_year", n)?;
                Efficiency.check("usage.charger_efficiency", eff)?;
            }
            UsageProfile::Measured { energy_per_year: e } => {
                NonNegative.check("usage.energy_per_year", e.value())?;
            }
            UsageProfile::Dynamic { operating_point: p } => {
                let op = "usage.operating_point";
                NonNegative.check(format_args!("{op}.vdd"), p.vdd.value())?;
                NonNegative.check(format_args!("{op}.frequency"), p.frequency.value())?;
                NonNegative.check(format_args!("{op}.leakage_current_a"), p.leakage_current_a)?;
                let capacitance = p.switched_capacitance_f;
                NonNegative.check(format_args!("{op}.switched_capacitance_f"), capacitance)?;
                Fraction.check(format_args!("{op}.activity"), p.activity)?;
                Fraction.check(format_args!("{op}.duty_cycle"), p.duty_cycle)?;
            }
        }
        self.packaging
            .validate()
            .map_err(|error| EcoChipError::InvalidSystem(format!("packaging: {error}")))
    }
}

// `clone_from` reuses the name's and the chiplet list's buffers (the
// chiplets themselves through `Chiplet::clone_from`). Both methods name
// every field, so a new one does not compile until it is cloned here.
impl Clone for System {
    fn clone(&self) -> Self {
        let Self {
            name,
            chiplets,
            packaging,
            usage,
            lifetime,
            volumes,
        } = self;
        Self {
            name: name.clone(),
            chiplets: chiplets.clone(),
            packaging: *packaging,
            usage: *usage,
            lifetime: *lifetime,
            volumes: *volumes,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let Self {
            name,
            chiplets,
            packaging,
            usage,
            lifetime,
            volumes,
        } = source;
        self.name.clone_from(name);
        self.chiplets.clone_from(chiplets);
        self.packaging = *packaging;
        self.usage = *usage;
        self.lifetime = *lifetime;
        self.volumes = *volumes;
    }
}

impl fmt::Display for System {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} chiplet{}, {})",
            self.name,
            self.chiplets.len(),
            if self.chiplets.len() == 1 { "" } else { "s" },
            self.packaging
        )
    }
}

/// Builder for [`System`].
#[derive(Debug, Clone)]
pub struct SystemBuilder {
    name: String,
    chiplets: Vec<Chiplet>,
    packaging: Option<PackagingArchitecture>,
    usage: UsageProfile,
    lifetime: TimeSpan,
    volumes: VolumeScenario,
}

impl SystemBuilder {
    /// Create a builder for a system with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            chiplets: Vec::new(),
            packaging: None,
            usage: UsageProfile::default(),
            lifetime: TimeSpan::from_years(2.0),
            volumes: VolumeScenario::default(),
        }
    }

    /// Add a chiplet.
    pub fn chiplet(mut self, chiplet: Chiplet) -> Self {
        self.chiplets.push(chiplet);
        self
    }

    /// Add several chiplets.
    pub fn chiplets<I: IntoIterator<Item = Chiplet>>(mut self, chiplets: I) -> Self {
        self.chiplets.extend(chiplets);
        self
    }

    /// Set the packaging architecture (required for multi-chiplet systems;
    /// defaults to RDL fanout when omitted).
    pub fn packaging(mut self, packaging: PackagingArchitecture) -> Self {
        self.packaging = Some(packaging);
        self
    }

    /// Set the usage profile (defaults to a mid-range dynamic profile).
    pub fn usage(mut self, usage: UsageProfile) -> Self {
        self.usage = usage;
        self
    }

    /// Set the deployment lifetime (defaults to 2 years).
    pub fn lifetime(mut self, lifetime: TimeSpan) -> Self {
        self.lifetime = lifetime;
        self
    }

    /// Set the manufacturing / shipping volumes (default `NMi = NS = 100 000`).
    pub fn volumes(mut self, volumes: VolumeScenario) -> Self {
        self.volumes = volumes;
        self
    }

    /// Build the system.
    ///
    /// # Errors
    ///
    /// Returns [`EcoChipError::InvalidSystem`] when the system fails
    /// [`System::validate`].
    pub fn build(self) -> Result<System, EcoChipError> {
        let system = System {
            name: self.name,
            chiplets: self.chiplets,
            packaging: self.packaging.unwrap_or(PackagingArchitecture::RdlFanout(
                ecochip_packaging::RdlFanoutConfig::default(),
            )),
            usage: self.usage,
            lifetime: self.lifetime,
            volumes: self.volumes,
        };
        system.validate()?;
        Ok(system)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecochip_packaging::RdlFanoutConfig;

    fn db() -> TechDb {
        TechDb::default()
    }

    fn logic_chiplet(node: TechNode) -> Chiplet {
        Chiplet::new(
            "logic",
            DesignType::Logic,
            node,
            ChipletSize::Transistors(10.0e9),
        )
    }

    #[test]
    fn chiplet_area_from_transistors_and_area_spec() {
        let db = db();
        let c = logic_chiplet(TechNode::N7);
        let area = c.area(&db).unwrap();
        assert!((area.mm2() - 10.0e9 / 91.0e6).abs() < 1e-6);
        assert!((c.transistors(&db).unwrap() - 10.0e9).abs() < 1.0);

        let from_area = Chiplet::new(
            "mem",
            DesignType::Memory,
            TechNode::N10,
            ChipletSize::AreaAtNode {
                area: Area::from_mm2(100.0),
                node: TechNode::N7,
            },
        );
        // Memory is less dense at 10 nm than 7 nm, so the area grows.
        assert!(from_area.area(&db).unwrap().mm2() > 100.0);
        assert!(from_area.transistors(&db).unwrap() > 0.0);
        assert!(!from_area.to_string().is_empty());
    }

    #[test]
    fn retargeting_preserves_transistors_and_rescales_area() {
        let db = db();
        let c7 = logic_chiplet(TechNode::N7);
        let c14 = c7.retargeted(TechNode::N14);
        assert_eq!(c14.node, TechNode::N14);
        assert!(
            (c7.transistors(&db).unwrap() - c14.transistors(&db).unwrap()).abs() < 1.0,
            "transistor budget must be preserved"
        );
        assert!(c14.area(&db).unwrap().mm2() > 2.0 * c7.area(&db).unwrap().mm2());
    }

    #[test]
    fn system_builder_validates() {
        assert!(matches!(
            System::builder("empty").build(),
            Err(EcoChipError::InvalidSystem(_))
        ));
        assert!(System::builder("bad lifetime")
            .chiplet(logic_chiplet(TechNode::N7))
            .lifetime(TimeSpan::from_years(0.0))
            .build()
            .is_err());
        let bad_packaging = PackagingArchitecture::RdlFanout(RdlFanoutConfig {
            layers: 0,
            ..RdlFanoutConfig::default()
        });
        assert!(System::builder("bad packaging")
            .chiplet(logic_chiplet(TechNode::N7))
            .packaging(bad_packaging)
            .build()
            .is_err());
        let ok = System::builder("ok")
            .chiplet(logic_chiplet(TechNode::N7))
            .build()
            .unwrap();
        assert!(ok.is_monolithic());
        assert_eq!(ok.chiplet_count(), 1);
        assert!(!ok.to_string().is_empty());
    }

    #[test]
    fn system_aggregates() {
        let db = db();
        let system = System::builder("agg")
            .chiplets([
                logic_chiplet(TechNode::N7),
                Chiplet::new(
                    "mem",
                    DesignType::Memory,
                    TechNode::N10,
                    ChipletSize::Transistors(8.0e9),
                ),
            ])
            .build()
            .unwrap();
        assert!(!system.is_monolithic());
        assert_eq!(system.chiplet_nodes(), vec![TechNode::N7, TechNode::N10]);
        let total_area = system.silicon_area(&db).unwrap();
        assert!(total_area.mm2() > 100.0);
        assert!((system.total_transistors(&db).unwrap() - 18.0e9).abs() < 1.0);
    }

    #[test]
    fn system_modifiers() {
        let base = System::builder("base")
            .chiplets([logic_chiplet(TechNode::N7), logic_chiplet(TechNode::N7)])
            .build()
            .unwrap();
        let moved = base.with_chiplet_node(1, TechNode::N14).unwrap();
        assert_eq!(moved.chiplets[1].node, TechNode::N14);
        assert_eq!(moved.chiplets[0].node, TechNode::N7);
        assert!(base.with_chiplet_node(5, TechNode::N14).is_err());

        let repackaged = base.with_packaging(PackagingArchitecture::RdlFanout(RdlFanoutConfig {
            layers: 8,
            ..RdlFanoutConfig::default()
        }));
        assert_ne!(repackaged.packaging, base.packaging);

        let long = base.with_lifetime(TimeSpan::from_years(5.0));
        assert!((long.lifetime.years() - 5.0).abs() < 1e-9);

        let reuse = base.with_volumes(VolumeScenario::with_reuse(100_000, 4.0));
        assert!((reuse.volumes.reuse_ratio() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn serde_round_trip() {
        let system = System::builder("serde")
            .chiplet(logic_chiplet(TechNode::N7))
            .build()
            .unwrap();
        let json = serde_json::to_string(&system).unwrap();
        let back: System = serde_json::from_str(&json).unwrap();
        assert_eq!(system, back);
    }
}

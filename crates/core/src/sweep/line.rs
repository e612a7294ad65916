//! The NDJSON line encoder of a streamed sweep.
//!
//! A [`SweepPoint`] encodes to the same bytes as its derived `Serialize`,
//! written field by field so the encoder knows where the values a scalar
//! step can change sit in the line. A point the engine re-priced from the
//! point before it ([`SweepSink::accept_batch`]) then costs a copy of the
//! previous line with those values rewritten, not a full encode.
//!
//! [`SweepSink::accept_batch`]: crate::sweep::SweepSink::accept_batch

use std::ops::Range;

use serde::{Error, Serialize};

use crate::report::{CarbonReport, ChipletReport};
use crate::sweep::SweepPoint;
use crate::system::System;

/// Holes in every line besides one per chiplet: the label,
/// `system.lifetime`, `system.volumes`, `report.comm_design` and
/// `report.lifetime`.
const FIXED_HOLES: usize = 5;

/// Spare capacity kept in both buffers past a fully encoded line, so a
/// re-priced line that grew by less than this allocates nothing.
const HEADROOM: usize = 256;

/// Encodes sweep points as compact JSON lines, byte for byte the derived
/// `Serialize` output (`serde_json::to_string(&point)`).
///
/// The encoder keeps the previous line and the byte ranges (*holes*) of
/// the fields a scalar step (a [`SweepAxis::is_scalar`] axis) can change:
/// the label, `system.lifetime`, `system.volumes`, each
/// `report.chiplets[i].design`, `report.comm_design` and `report.lifetime`.
/// A point passed as re-priced is encoded by copying the previous line
/// between the holes and writing only the hole values, into a second
/// reused buffer, so such a step allocates nothing. Any other point, and
/// every point after an encode error, is encoded in full.
///
/// ```
/// use ecochip_core::sweep::{LineEncoder, SweepAxis, SweepEngine, SweepSpec};
/// use ecochip_core::{Chiplet, ChipletSize, EcoChip, System};
/// use ecochip_techdb::{DesignType, TechNode};
///
/// let base = System::builder("demo")
///     .chiplet(Chiplet::new(
///         "soc",
///         DesignType::Logic,
///         TechNode::N7,
///         ChipletSize::Transistors(5.0e9),
///     ))
///     .build()?;
/// let spec = SweepSpec::new(base).axis(SweepAxis::lifetimes_years(&[1.0, 2.0]));
/// let points = SweepEngine::serial().run(&EcoChip::default(), &spec)?;
/// let mut encoder = LineEncoder::new();
/// let first = encoder.encode(&points[0], false).unwrap().to_owned();
/// // The second point differs from the first in a lifetime only.
/// let second = encoder.encode(&points[1], true).unwrap();
/// assert_eq!(second, serde_json::to_string(&points[1]).unwrap());
/// assert_eq!(first, serde_json::to_string(&points[0]).unwrap());
/// # Ok::<(), ecochip_core::EcoChipError>(())
/// ```
///
/// [`SweepAxis::is_scalar`]: crate::sweep::SweepAxis::is_scalar
#[derive(Debug, Default)]
pub struct LineEncoder {
    /// The last line encoded.
    line: String,
    /// The buffer the next re-priced line is spliced into.
    spare: String,
    /// The holes of `line`, in line order; empty when there is no
    /// template to splice into.
    holes: Vec<Range<usize>>,
}

impl LineEncoder {
    /// An encoder with no template yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encode `point` as one line, without the trailing newline.
    ///
    /// `repriced` must be true only when `point` differs from the point
    /// this encoder encoded last in nothing but the hole fields: the
    /// engine marks a point re-priced from the point before it in the
    /// same batch this way. The encoder does not check that the other
    /// fields match; it only encodes a marked point in full when its
    /// chiplet count, which sizes the hole list, differs from the
    /// template's.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] if the point holds a non-finite float. The
    /// template is dropped, so the next point is encoded in full.
    pub fn encode(&mut self, point: &SweepPoint, repriced: bool) -> Result<&str, Error> {
        let holes = FIXED_HOLES + point.report.chiplets.len();
        let encoded = if repriced && self.holes.len() == holes {
            self.spare.clear();
            let mut splice = Splice {
                previous: &self.line,
                out: &mut self.spare,
                holes: &mut self.holes,
                next: 0,
                copied: 0,
            };
            let spliced = write_point(&mut splice, point);
            if spliced.is_ok() {
                splice.out.push_str(&splice.previous[splice.copied..]);
                std::mem::swap(&mut self.line, &mut self.spare);
            }
            spliced
        } else {
            self.line.clear();
            self.holes.clear();
            let full = write_point(
                &mut Full {
                    out: &mut self.line,
                    holes: &mut self.holes,
                },
                point,
            );
            if full.is_ok() {
                self.line.reserve(HEADROOM);
                self.spare.clear();
                self.spare.reserve(self.line.len() + HEADROOM);
            }
            full
        };
        match encoded {
            Ok(()) => Ok(&self.line),
            Err(error) => {
                self.holes.clear();
                Err(error)
            }
        }
    }
}

/// Where [`write_point`] sends a line's pieces: its fixed text, the
/// values a scalar step keeps and the hole values.
trait LineWriter {
    /// Text between values: keys and punctuation.
    fn text(&mut self, text: &str);
    /// A value no scalar step changes.
    fn value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error>;
    /// A hole value.
    fn hole<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error>;
}

/// Writes a whole line and records its holes.
struct Full<'a> {
    out: &'a mut String,
    holes: &'a mut Vec<Range<usize>>,
}

impl LineWriter for Full<'_> {
    fn text(&mut self, text: &str) {
        self.out.push_str(text);
    }

    fn value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
        value.write_json(self.out)
    }

    fn hole<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
        let start = self.out.len();
        value.write_json(self.out)?;
        self.holes.push(start..self.out.len());
        Ok(())
    }
}

/// Copies `previous` up to each hole, writes the new hole value in its
/// place and moves the hole to where it now sits in `out`. The caller
/// appends `previous[copied..]` after the last hole.
struct Splice<'a> {
    previous: &'a str,
    out: &'a mut String,
    holes: &'a mut [Range<usize>],
    /// The next hole to fill.
    next: usize,
    /// How far `previous` has been copied or passed over.
    copied: usize,
}

impl LineWriter for Splice<'_> {
    fn text(&mut self, _: &str) {}

    fn value<T: Serialize + ?Sized>(&mut self, _: &T) -> Result<(), Error> {
        Ok(())
    }

    fn hole<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
        let hole = &mut self.holes[self.next];
        self.out.push_str(&self.previous[self.copied..hole.start]);
        self.copied = hole.end;
        let start = self.out.len();
        value.write_json(self.out)?;
        *hole = start..self.out.len();
        self.next += 1;
        Ok(())
    }
}

/// Write `point` field by field in its derived `Serialize` order. The
/// destructuring is exhaustive, so a field added to any of these structs
/// does not compile until it is written here.
fn write_point(w: &mut impl LineWriter, point: &SweepPoint) -> Result<(), Error> {
    let SweepPoint {
        label,
        system,
        report,
    } = point;
    let System {
        name,
        chiplets,
        packaging,
        usage,
        lifetime,
        volumes,
    } = system;
    w.text("{\"label\":");
    w.hole(label)?;
    w.text(",\"system\":{\"name\":");
    w.value(name)?;
    w.text(",\"chiplets\":");
    w.value(chiplets)?;
    w.text(",\"packaging\":");
    w.value(packaging)?;
    w.text(",\"usage\":");
    w.value(usage)?;
    w.text(",\"lifetime\":");
    w.hole(lifetime)?;
    w.text(",\"volumes\":");
    w.hole(volumes)?;
    let CarbonReport {
        system_name,
        chiplets,
        hi,
        comm_design,
        operational_per_year,
        lifetime,
    } = report;
    w.text("},\"report\":{\"system_name\":");
    w.value(system_name)?;
    w.text(",\"chiplets\":[");
    for (at, chiplet) in chiplets.iter().enumerate() {
        let ChipletReport {
            name,
            node,
            base_area,
            comm_area,
            manufacturing,
            design,
        } = chiplet;
        w.text(if at == 0 { "{\"name\":" } else { ",{\"name\":" });
        w.value(name)?;
        w.text(",\"node\":");
        w.value(node)?;
        w.text(",\"base_area\":");
        w.value(base_area)?;
        w.text(",\"comm_area\":");
        w.value(comm_area)?;
        w.text(",\"manufacturing\":");
        w.value(manufacturing)?;
        w.text(",\"design\":");
        w.hole(design)?;
        w.text("}");
    }
    w.text("],\"hi\":");
    w.value(hi)?;
    w.text(",\"comm_design\":");
    w.hole(comm_design)?;
    w.text(",\"operational_per_year\":");
    w.value(operational_per_year)?;
    w.text(",\"lifetime\":");
    w.hole(lifetime)?;
    w.text("}}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{SweepAxis, SweepEngine, SweepSpec};
    use crate::system::{Chiplet, ChipletSize};
    use crate::EcoChip;
    use ecochip_techdb::{Carbon, DesignType, TechNode, TimeSpan};

    fn points() -> Vec<SweepPoint> {
        let base = System::builder("line-test")
            .chiplets([
                Chiplet::new(
                    "logic",
                    DesignType::Logic,
                    TechNode::N7,
                    ChipletSize::Transistors(8.0e9),
                ),
                Chiplet::new(
                    "mem",
                    DesignType::Memory,
                    TechNode::N14,
                    ChipletSize::Transistors(2.0e9),
                ),
            ])
            .build()
            .unwrap();
        let spec = SweepSpec::new(base)
            .axis(SweepAxis::reuse_ratios(1_000, &[1.0, 4.0]))
            .axis(SweepAxis::lifetimes_years(&[1.0, 2.5, 10.0]));
        SweepEngine::serial()
            .run(&EcoChip::default(), &spec)
            .unwrap()
    }

    #[test]
    fn spliced_lines_match_the_derived_encoding() {
        let points = points();
        let mut encoder = LineEncoder::new();
        for (at, point) in points.iter().enumerate() {
            // Every step after the first changes a scalar axis only.
            let line = encoder.encode(point, at > 0).unwrap();
            assert_eq!(line, serde_json::to_string(point).unwrap(), "{at}");
        }
        assert_eq!(encoder.holes.len(), FIXED_HOLES + 2);
    }

    #[test]
    fn an_encode_error_drops_the_template() {
        let points = points();
        let mut encoder = LineEncoder::new();
        encoder.encode(&points[0], false).unwrap();
        let mut broken = points[1].clone();
        broken.report.comm_design = Carbon::from_kg(f64::NAN);
        assert!(encoder.encode(&broken, true).is_err());
        assert!(encoder.holes.is_empty());
        // The next marked point is encoded in full, not spliced into the
        // half-written line.
        let line = encoder.encode(&points[2], true).unwrap();
        assert_eq!(line, serde_json::to_string(&points[2]).unwrap());
        // A failing full encode drops the template too.
        let mut broken = points[3].clone();
        broken.system.lifetime = TimeSpan::from_hours(f64::INFINITY);
        assert!(encoder.encode(&broken, false).is_err());
        assert!(encoder.holes.is_empty());
        let line = encoder.encode(&points[4], true).unwrap();
        assert_eq!(line, serde_json::to_string(&points[4]).unwrap());
    }
}

//! AREA_GROUP-style floorplan constraints.
//!
//! The paper validates its PRR model by constraining each PRM to the
//! model-predicted region with the `AREA_GROUP` attribute in a `.ucf` file
//! and letting ISE place and route inside it. This module provides the
//! equivalent: named rectangular region constraints over a device, with
//! UCF-like text output and overlap/containment validation.

use core::fmt;
use fabric::{Device, ResourceKind, Window};
use serde::{Deserialize, Serialize};

/// One named region constraint (one PRR or the static region).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AreaGroup {
    /// Group name, e.g. `"pblock_fir32"`.
    pub name: String,
    /// The constrained window.
    pub window: Window,
}

impl AreaGroup {
    /// Constrain `name` to `window`.
    pub fn new(name: impl Into<String>, window: Window) -> Self {
        AreaGroup {
            name: name.into(),
            window,
        }
    }

    /// Render one UCF-style constraint line:
    /// `AREA_GROUP "name" RANGE=COL_x0:COL_x1 ROW_r0:ROW_r1;`.
    pub fn to_ucf(&self) -> String {
        format!(
            "AREA_GROUP \"{}\" RANGE=COL_{}:COL_{} ROW_{}:ROW_{};",
            self.name,
            self.window.start_col,
            self.window.end_col() - 1,
            self.window.row,
            self.window.top_row()
        )
    }
}

/// A set of area groups over one device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Floorplan {
    /// Device part name the plan targets.
    pub device: String,
    /// All region constraints.
    pub groups: Vec<AreaGroup>,
}

/// Floorplan validation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FloorplanError {
    /// A group's window exceeds the device bounds.
    OutOfBounds {
        /// Offending group.
        group: String,
    },
    /// A group's window covers an IOB or CLK column.
    ForbiddenColumn {
        /// Offending group.
        group: String,
        /// The forbidden column kind.
        kind: ResourceKind,
        /// Device column index.
        column: usize,
    },
    /// Two groups overlap.
    Overlap {
        /// First group.
        a: String,
        /// Second group.
        b: String,
    },
    /// A group's recorded column kinds disagree with the device layout.
    LayoutMismatch {
        /// Offending group.
        group: String,
    },
}

impl fmt::Display for FloorplanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FloorplanError::OutOfBounds { group } => {
                write!(f, "area group `{group}` exceeds the device bounds")
            }
            FloorplanError::ForbiddenColumn {
                group,
                kind,
                column,
            } => write!(
                f,
                "area group `{group}` covers a {kind} column at index {column}; \
                 IOB/CLK columns cannot be inside PRRs"
            ),
            FloorplanError::Overlap { a, b } => write!(f, "area groups `{a}` and `{b}` overlap"),
            FloorplanError::LayoutMismatch { group } => write!(
                f,
                "area group `{group}` records column kinds that disagree with the device layout"
            ),
        }
    }
}

impl std::error::Error for FloorplanError {}

impl Floorplan {
    /// Empty floorplan for `device`.
    pub fn new(device: &Device) -> Self {
        Floorplan {
            device: device.name().to_string(),
            groups: Vec::new(),
        }
    }

    /// Add a group.
    pub fn push(&mut self, group: AreaGroup) {
        self.groups.push(group);
    }

    /// Validate all groups against `device`: bounds, forbidden columns,
    /// column-kind agreement and pairwise non-overlap.
    pub fn validate(&self, device: &Device) -> Result<(), FloorplanError> {
        for g in &self.groups {
            let w = &g.window;
            if w.end_col() > device.width() || device.check_row_span(w.row, w.height).is_err() {
                return Err(FloorplanError::OutOfBounds {
                    group: g.name.clone(),
                });
            }
            for (offset, &kind) in w.columns.iter().enumerate() {
                let col = w.start_col + offset;
                let actual = device.columns()[col];
                if actual != kind {
                    return Err(FloorplanError::LayoutMismatch {
                        group: g.name.clone(),
                    });
                }
                if !kind.allowed_in_prr() {
                    return Err(FloorplanError::ForbiddenColumn {
                        group: g.name.clone(),
                        kind,
                        column: col,
                    });
                }
            }
        }
        for (i, a) in self.groups.iter().enumerate() {
            for b in &self.groups[i + 1..] {
                if a.window.overlaps(&b.window) {
                    return Err(FloorplanError::Overlap {
                        a: a.name.clone(),
                        b: b.name.clone(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Render the whole plan as UCF-style text.
    pub fn to_ucf(&self) -> String {
        let mut out = format!("# floorplan for {}\n", self.device);
        for g in &self.groups {
            out.push_str(&g.to_ucf());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::database::xc5vlx110t;
    use fabric::WindowRequest;

    fn window(device: &Device, req: &WindowRequest) -> Window {
        device.find_window(req).unwrap()
    }

    #[test]
    fn ucf_text_has_one_line_per_group() {
        let device = xc5vlx110t();
        let mut plan = Floorplan::new(&device);
        plan.push(AreaGroup::new(
            "pblock_fir",
            window(&device, &WindowRequest::new(2, 1, 0, 5)),
        ));
        plan.push(AreaGroup::new(
            "pblock_sdram",
            window(&device, &WindowRequest::new(3, 0, 0, 1)),
        ));
        // The two leftmost windows may overlap; shift the second one up.
        plan.groups[1].window.row = 7;
        plan.validate(&device).unwrap();
        assert_eq!(
            plan.to_ucf(),
            "# floorplan for xc5vlx110t\n\
             AREA_GROUP \"pblock_fir\" RANGE=COL_23:COL_25 ROW_1:ROW_5;\n\
             AREA_GROUP \"pblock_sdram\" RANGE=COL_1:COL_3 ROW_7:ROW_7;\n"
        );
    }

    #[test]
    fn validate_rejects_out_of_bounds() {
        let device = xc5vlx110t();
        let mut w = window(&device, &WindowRequest::new(2, 0, 0, 1));
        w.row = 8;
        w.height = 2; // rows 8..9 on an 8-row device
        let mut plan = Floorplan::new(&device);
        plan.push(AreaGroup::new("too_tall", w));
        assert!(matches!(
            plan.validate(&device),
            Err(FloorplanError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn validate_rejects_forbidden_columns() {
        let device = xc5vlx110t();
        // Column 0 is an IOB column.
        let w = Window {
            start_col: 0,
            width: 2,
            row: 1,
            height: 1,
            columns: device.columns()[0..2].to_vec(),
        };
        let mut plan = Floorplan::new(&device);
        plan.push(AreaGroup::new("bad", w));
        assert!(matches!(
            plan.validate(&device),
            Err(FloorplanError::ForbiddenColumn {
                kind: ResourceKind::Iob,
                ..
            })
        ));
    }

    #[test]
    fn validate_rejects_overlap() {
        let device = xc5vlx110t();
        let w = window(&device, &WindowRequest::new(2, 0, 0, 2));
        let mut plan = Floorplan::new(&device);
        plan.push(AreaGroup::new("a", w.clone()));
        plan.push(AreaGroup::new("b", w));
        assert!(matches!(
            plan.validate(&device),
            Err(FloorplanError::Overlap { .. })
        ));
    }

    #[test]
    fn validate_rejects_layout_mismatch() {
        let device = xc5vlx110t();
        let mut w = window(&device, &WindowRequest::new(2, 1, 0, 1));
        w.columns[0] = ResourceKind::Bram; // lie about the layout
        let mut plan = Floorplan::new(&device);
        plan.push(AreaGroup::new("liar", w));
        assert!(matches!(
            plan.validate(&device),
            Err(FloorplanError::LayoutMismatch { .. })
        ));
    }
}

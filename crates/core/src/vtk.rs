//! VTK legacy export.
//!
//! §III-B: NekCEM writes "the vtk legacy format, \[which\] can be directly
//! read by postprocessing tools for visualization using ParaView or VisIt"
//! — reusing checkpoint data for analysis is one of the paper's arguments
//! for application-level checkpointing. This module converts restored
//! checkpoint fields plus a mesh into a legacy `.vtk` unstructured-grid
//! file (ASCII or binary).
//!
//! Legacy binary VTK stores all numbers big-endian; both flavours are
//! supported and tested.

use std::io::{self, Write};
use std::path::Path;

/// An unstructured hexahedral mesh with point-centered fields.
#[derive(Debug, Clone, Default)]
pub struct VtkGrid {
    /// Point coordinates.
    pub points: Vec<[f64; 3]>,
    /// Hexahedral cells (8 point indices each, VTK_HEXAHEDRON ordering).
    pub hexes: Vec<[u32; 8]>,
    /// Named point-centered scalar fields; each must have one value per
    /// point.
    pub fields: Vec<(String, Vec<f64>)>,
}

/// Errors building/writing a grid.
#[derive(Debug)]
pub enum VtkError {
    /// A cell references a missing point.
    BadCell {
        /// Cell index.
        cell: usize,
        /// Offending point id.
        point: u32,
    },
    /// A field's length differs from the point count.
    BadFieldLen {
        /// Field name.
        name: String,
        /// Values present.
        got: usize,
        /// Points in the grid.
        want: usize,
    },
    /// Underlying I/O error.
    Io(io::Error),
}

impl std::fmt::Display for VtkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VtkError::BadCell { cell, point } => {
                write!(f, "cell {cell} references missing point {point}")
            }
            VtkError::BadFieldLen { name, got, want } => {
                write!(f, "field {name}: {got} values for {want} points")
            }
            VtkError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for VtkError {}

impl From<io::Error> for VtkError {
    fn from(e: io::Error) -> Self {
        VtkError::Io(e)
    }
}

impl VtkGrid {
    /// Validate internal consistency.
    pub fn validate(&self) -> Result<(), VtkError> {
        let np = self.points.len();
        for (ci, hex) in self.hexes.iter().enumerate() {
            for &p in hex {
                if p as usize >= np {
                    return Err(VtkError::BadCell { cell: ci, point: p });
                }
            }
        }
        for (name, vals) in &self.fields {
            if vals.len() != np {
                return Err(VtkError::BadFieldLen {
                    name: name.clone(),
                    got: vals.len(),
                    want: np,
                });
            }
        }
        Ok(())
    }

    /// Write as a legacy `.vtk` file. `binary` selects the (big-endian)
    /// binary encoding; ASCII otherwise.
    pub fn write_legacy(
        &self,
        path: impl AsRef<Path>,
        title: &str,
        binary: bool,
    ) -> Result<(), VtkError> {
        self.validate()?;
        let f = std::fs::File::create(path)?;
        let mut w = io::BufWriter::new(f);
        self.write_to(&mut w, title, binary)?;
        w.flush()?;
        Ok(())
    }

    /// Write the legacy format to any writer (see [`VtkGrid::write_legacy`]).
    pub fn write_to(&self, w: &mut impl Write, title: &str, binary: bool) -> Result<(), VtkError> {
        // Master header — the paper's Fig. 2 "application name, file type
        // (binary or ASCII), application type, grid point coordinates,
        // cell numbering, and cell type".
        writeln!(w, "# vtk DataFile Version 3.0")?;
        writeln!(w, "{}", title.lines().next().unwrap_or("rbio checkpoint"))?;
        writeln!(w, "{}", if binary { "BINARY" } else { "ASCII" })?;
        writeln!(w, "DATASET UNSTRUCTURED_GRID")?;

        writeln!(w, "POINTS {} double", self.points.len())?;
        if binary {
            for p in &self.points {
                for &c in p {
                    w.write_all(&c.to_be_bytes())?;
                }
            }
            writeln!(w)?;
        } else {
            for p in &self.points {
                writeln!(w, "{} {} {}", p[0], p[1], p[2])?;
            }
        }

        writeln!(w, "CELLS {} {}", self.hexes.len(), self.hexes.len() * 9)?;
        if binary {
            for hex in &self.hexes {
                w.write_all(&8i32.to_be_bytes())?;
                for &p in hex {
                    w.write_all(&(p as i32).to_be_bytes())?;
                }
            }
            writeln!(w)?;
        } else {
            for hex in &self.hexes {
                write!(w, "8")?;
                for &p in hex {
                    write!(w, " {p}")?;
                }
                writeln!(w)?;
            }
        }

        writeln!(w, "CELL_TYPES {}", self.hexes.len())?;
        if binary {
            for _ in &self.hexes {
                w.write_all(&12i32.to_be_bytes())?; // VTK_HEXAHEDRON
            }
            writeln!(w)?;
        } else {
            for _ in &self.hexes {
                writeln!(w, "12")?;
            }
        }

        if !self.fields.is_empty() {
            writeln!(w, "POINT_DATA {}", self.points.len())?;
            for (name, vals) in &self.fields {
                writeln!(w, "SCALARS {name} double 1")?;
                writeln!(w, "LOOKUP_TABLE default")?;
                if binary {
                    for &v in vals {
                        w.write_all(&v.to_be_bytes())?;
                    }
                    writeln!(w)?;
                } else {
                    for &v in vals {
                        writeln!(w, "{v}")?;
                    }
                }
            }
        }
        Ok(())
    }
}

/// Decode a little-endian f64 field block (the checkpoint on-disk layout)
/// into values. The byte length must be a multiple of 8.
pub fn decode_f64_field(bytes: &[u8]) -> Vec<f64> {
    assert_eq!(bytes.len() % 8, 0, "field blocks are f64 arrays");
    bytes
        .chunks_exact(8)
        .filter_map(|c| c.first_chunk().copied().map(f64::from_le_bytes))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_cube() -> VtkGrid {
        let points = vec![
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [1.0, 1.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [1.0, 0.0, 1.0],
            [1.0, 1.0, 1.0],
            [0.0, 1.0, 1.0],
        ];
        VtkGrid {
            fields: vec![("Ex".into(), (0..8).map(f64::from).collect())],
            hexes: vec![[0, 1, 2, 3, 4, 5, 6, 7]],
            points,
        }
    }

    #[test]
    fn ascii_output_structure() {
        let g = unit_cube();
        let mut buf = Vec::new();
        g.write_to(&mut buf, "one cube", false).expect("write");
        let s = String::from_utf8(buf).expect("ascii");
        assert!(s.starts_with("# vtk DataFile Version 3.0\none cube\nASCII\n"));
        assert!(s.contains("DATASET UNSTRUCTURED_GRID"));
        assert!(s.contains("POINTS 8 double"));
        assert!(s.contains("CELLS 1 9"));
        assert!(s.contains("\n12\n"));
        assert!(s.contains("POINT_DATA 8"));
        assert!(s.contains("SCALARS Ex double 1"));
        // All eight scalar values present.
        for v in 0..8 {
            assert!(s.contains(&format!("\n{v}\n")), "missing value {v}");
        }
    }

    #[test]
    fn binary_output_is_big_endian() {
        let g = unit_cube();
        let mut buf = Vec::new();
        g.write_to(&mut buf, "bin", true).expect("write");
        let s = String::from_utf8_lossy(&buf);
        assert!(s.contains("BINARY"));
        // Locate the POINTS section and check the second point's x == 1.0
        // in big-endian f64.
        let header_end = buf
            .windows(7)
            .position(|w| w == b"double\n")
            .expect("points header")
            + 7;
        let x1 = f64::from_be_bytes(buf[header_end + 24..header_end + 32].try_into().unwrap());
        assert_eq!(x1, 1.0);
    }

    #[test]
    fn validation_catches_bad_input() {
        let mut g = unit_cube();
        g.hexes[0][3] = 99;
        assert!(matches!(
            g.validate(),
            Err(VtkError::BadCell { point: 99, .. })
        ));
        let mut g = unit_cube();
        g.fields[0].1.pop();
        assert!(matches!(g.validate(), Err(VtkError::BadFieldLen { .. })));
        assert!(unit_cube().validate().is_ok());
    }

    #[test]
    fn decode_f64_round_trips() {
        let vals = [1.5f64, -2.25, 0.0, 1e-300];
        let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        assert_eq!(decode_f64_field(&bytes), vals);
    }

    #[test]
    fn file_write_works() {
        let path = std::env::temp_dir().join(format!("rbio-vtk-{}.vtk", std::process::id()));
        unit_cube().write_legacy(&path, "t", false).expect("write");
        let body = std::fs::read_to_string(&path).expect("read");
        assert!(body.contains("POINTS 8 double"));
        #[allow(clippy::disallowed_methods)]
        std::fs::remove_file(&path).ok();
    }
}

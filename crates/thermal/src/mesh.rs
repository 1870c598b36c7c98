//! 2-D steady-state thermal resistance mesh.
//!
//! Each cell exchanges heat laterally with its 4-neighbors (silicon
//! spreading) and vertically with the heatsink/ambient. The resulting
//! conductance system `G·T = P + G_v·T_amb` is symmetric positive
//! definite and solved with the workspace conjugate-gradient kernel.

use crate::ThermalError;
use vpd_numeric::{conjugate_gradient, CgSettings, CooMatrix};
use vpd_units::{Celsius, Watts};

/// A rectangular thermal mesh.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ThermalMesh {
    nx: usize,
    ny: usize,
    /// Lateral (cell-to-cell) thermal conductance, W/K.
    lateral_conductance: f64,
    /// Vertical (cell-to-heatsink) thermal conductance, W/K.
    vertical_conductance: f64,
    /// Heatsink/ambient temperature.
    ambient: Celsius,
}

impl ThermalMesh {
    /// A mesh with explicit conductances.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] for non-positive
    /// dimensions or conductances.
    pub fn new(
        nx: usize,
        ny: usize,
        lateral_conductance: f64,
        vertical_conductance: f64,
        ambient: Celsius,
    ) -> Result<Self, ThermalError> {
        if nx == 0 || ny == 0 {
            return Err(ThermalError::InvalidParameter {
                what: "mesh dimension",
                value: 0.0,
            });
        }
        for (what, v) in [
            ("lateral conductance", lateral_conductance),
            ("vertical conductance", vertical_conductance),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(ThermalError::InvalidParameter { what, value: v });
            }
        }
        Ok(Self {
            nx,
            ny,
            lateral_conductance,
            vertical_conductance,
            ambient,
        })
    }

    /// A silicon die with embedded/microchannel cooling, 25 °C coolant:
    /// lateral spreading through 0.5 mm of silicon (k ≈ 150 W/m·K) and
    /// an effective 20 W/cm²·K vertical stack — the class of cooling a
    /// 2 A/mm² (200 W/cm²) system requires. Conductances scale with the
    /// cell size of a 500 mm² die divided into `nx × ny` cells.
    ///
    /// # Errors
    ///
    /// As for [`ThermalMesh::new`].
    pub fn silicon_die_default(nx: usize, ny: usize) -> Result<Self, ThermalError> {
        if nx == 0 || ny == 0 {
            return Err(ThermalError::InvalidParameter {
                what: "mesh dimension",
                value: 0.0,
            });
        }
        let die_area_m2 = 500e-6; // 500 mm²
        let cell_area = die_area_m2 / (nx * ny) as f64;
        let k_si = 150.0; // W/(m·K)
        let die_thickness = 0.5e-3;
        // Lateral: k·A_cross/L with A_cross = pitch × thickness, L = pitch.
        let lateral = k_si * die_thickness; // pitch cancels
                                            // Vertical: 20 W/(cm²·K) = 2e5 W/(m²·K) effective microchannel stack.
        let vertical = 2.0e5 * cell_area;
        Self::new(nx, ny, lateral, vertical, Celsius::new(25.0))
    }

    /// Mesh width in cells.
    #[must_use]
    pub const fn nx(&self) -> usize {
        self.nx
    }

    /// Mesh height in cells.
    #[must_use]
    pub const fn ny(&self) -> usize {
        self.ny
    }

    /// The ambient (coolant) temperature.
    #[must_use]
    pub fn ambient(&self) -> Celsius {
        self.ambient
    }

    /// Solves the steady-state temperature field for a per-cell power
    /// map.
    ///
    /// # Errors
    ///
    /// * [`ThermalError::ShapeMismatch`] when the map doesn't match the
    ///   mesh.
    /// * [`ThermalError::Numeric`] if CG fails to converge.
    // Laplacian stamping indexes the power map and the flat node id in
    // lockstep, matching the textbook form.
    #[allow(clippy::needless_range_loop)]
    pub fn solve(&self, power: &[Vec<Watts>]) -> Result<ThermalMap, ThermalError> {
        if power.len() != self.ny || power.iter().any(|row| row.len() != self.nx) {
            return Err(ThermalError::ShapeMismatch {
                expected: (self.nx, self.ny),
                found: (power.first().map_or(0, Vec::len), power.len()),
            });
        }
        let n = self.nx * self.ny;
        let mut coo = CooMatrix::new(n, n);
        let mut rhs = vec![0.0; n];
        let gl = self.lateral_conductance;
        let gv = self.vertical_conductance;
        for y in 0..self.ny {
            for x in 0..self.nx {
                let i = y * self.nx + x;
                let mut diag = gv;
                if x + 1 < self.nx {
                    let j = i + 1;
                    coo.push(i, j, -gl);
                    coo.push(j, i, -gl);
                    diag += gl;
                }
                if x > 0 {
                    diag += gl;
                }
                if y + 1 < self.ny {
                    let j = i + self.nx;
                    coo.push(i, j, -gl);
                    coo.push(j, i, -gl);
                    diag += gl;
                }
                if y > 0 {
                    diag += gl;
                }
                coo.push(i, i, diag);
                rhs[i] = power[y][x].value() + gv * self.ambient.value();
            }
        }
        let (t, _) = conjugate_gradient(&coo.to_csr(), &rhs, &CgSettings::default())?;
        let temps = (0..self.ny)
            .map(|y| {
                (0..self.nx)
                    .map(|x| Celsius::new(t[y * self.nx + x]))
                    .collect()
            })
            .collect();
        Ok(ThermalMap { temps })
    }
}

/// A solved temperature field.
#[derive(Clone, PartialEq, Debug)]
pub struct ThermalMap {
    temps: Vec<Vec<Celsius>>,
}

impl ThermalMap {
    /// Temperature of cell `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when the coordinate lies outside the mesh.
    #[must_use]
    pub fn at(&self, x: usize, y: usize) -> Celsius {
        self.temps[y][x]
    }

    /// Hottest cell.
    #[must_use]
    pub fn max(&self) -> Celsius {
        self.temps
            .iter()
            .flatten()
            .copied()
            .fold(Celsius::new(f64::NEG_INFINITY), Celsius::max)
    }

    /// Area-average temperature.
    #[must_use]
    pub fn mean(&self) -> Celsius {
        let n = (self.temps.len() * self.temps[0].len()) as f64;
        Celsius::new(self.temps.iter().flatten().map(|t| t.value()).sum::<f64>() / n)
    }

    /// The full field, row-major.
    #[must_use]
    pub fn cells(&self) -> &[Vec<Celsius>] {
        &self.temps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn uniform_power_gives_uniformish_field() {
        let mesh = ThermalMesh::silicon_die_default(9, 9).unwrap();
        let p = vec![vec![Watts::new(1.0); 9]; 9];
        let map = mesh.solve(&p).unwrap();
        // All cells identical by symmetry + uniformity (no boundary
        // heat loss laterally → exactly uniform).
        let t00 = map.at(0, 0).value();
        let t44 = map.at(4, 4).value();
        assert!((t00 - t44).abs() < 1e-6);
        // Rise = P/G_v per cell.
        let mesh_gv = 2.0e5 * (500e-6 / 81.0);
        let expected = 25.0 + 1.0 / mesh_gv;
        assert!((t44 - expected).abs() < 1e-6);
    }

    #[test]
    fn hotspot_is_hotter_than_edge() {
        let mesh = ThermalMesh::silicon_die_default(11, 11).unwrap();
        let mut p = vec![vec![Watts::new(0.5); 11]; 11];
        p[5][5] = Watts::new(20.0);
        let map = mesh.solve(&p).unwrap();
        assert!(map.at(5, 5).value() > map.at(0, 0).value() + 5.0);
        assert!(map.max().value() > map.mean().value());
    }

    #[test]
    fn lateral_spreading_smooths_the_peak() {
        let hot = |lateral: f64| {
            let mesh = ThermalMesh::new(11, 11, lateral, 0.03, Celsius::new(25.0)).unwrap();
            let mut p = vec![vec![Watts::new(0.2); 11]; 11];
            p[5][5] = Watts::new(10.0);
            mesh.solve(&p).unwrap().max().value()
        };
        assert!(hot(0.01) > hot(1.0), "more spreading, cooler peak");
    }

    #[test]
    fn paper_scale_sanity() {
        // 1 kW over a 500 mm² die with the hotspot profile: peak die
        // temperature lands in a plausible high-performance band.
        let n = 25;
        let mesh = ThermalMesh::silicon_die_default(n, n).unwrap();
        // Rough hotspot: half the power within the center 5x5.
        let mut p = vec![vec![Watts::new(500.0 / (n * n - 25) as f64); n]; n];
        for row in p.iter_mut().take(15).skip(10) {
            for cell in row.iter_mut().take(15).skip(10) {
                *cell = Watts::new(500.0 / 25.0);
            }
        }
        let map = mesh.solve(&p).unwrap();
        let peak = map.max().value();
        assert!(
            (55.0..160.0).contains(&peak),
            "peak {peak:.0} °C out of plausible band"
        );
    }

    #[test]
    fn shape_mismatch_rejected() {
        let mesh = ThermalMesh::silicon_die_default(4, 4).unwrap();
        let p = vec![vec![Watts::new(1.0); 3]; 3];
        assert!(matches!(
            mesh.solve(&p),
            Err(ThermalError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(ThermalMesh::new(0, 5, 1.0, 1.0, Celsius::new(25.0)).is_err());
        assert!(ThermalMesh::new(5, 5, -1.0, 1.0, Celsius::new(25.0)).is_err());
        assert!(ThermalMesh::silicon_die_default(0, 3).is_err());
    }

    proptest! {
        /// Superposition: the field of (P1 + P2) equals field(P1) +
        /// field(P2) − ambient offset (the system is linear).
        #[test]
        fn prop_superposition(
            p1 in 0.1_f64..5.0,
            p2 in 0.1_f64..5.0,
            x in 0_usize..5,
            y in 0_usize..5,
        ) {
            let mesh = ThermalMesh::silicon_die_default(5, 5).unwrap();
            let zero = vec![vec![Watts::ZERO; 5]; 5];
            let mut m1 = zero.clone();
            m1[y][x] = Watts::new(p1);
            let mut m2 = zero.clone();
            m2[2][2] = Watts::new(p2);
            let mut m12 = m1.clone();
            m12[2][2] += Watts::new(p2);
            let t1 = mesh.solve(&m1).unwrap();
            let t2 = mesh.solve(&m2).unwrap();
            let t12 = mesh.solve(&m12).unwrap();
            for cy in 0..5 {
                for cx in 0..5 {
                    let lhs = t12.at(cx, cy).value();
                    let rhs = t1.at(cx, cy).value() + t2.at(cx, cy).value() - 25.0;
                    prop_assert!((lhs - rhs).abs() < 1e-6);
                }
            }
        }
    }
}

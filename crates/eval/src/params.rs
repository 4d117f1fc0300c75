//! The paper's parameter grids (Tables IV and V), with defaults.

/// Table IV: the spatial-experiment parameter grid.
pub struct Table4;

impl Table4 {
    /// Norm-distance multipliers swept in Figure 8 (`0.33b̌ … 1.67b̌`).
    pub const B_FACTORS: [f64; 5] = [0.33, 0.67, 1.0, 1.33, 1.67];
    /// Small grid resolutions (exact-LP regime, Figures 9a–e).
    pub const D_SMALL: [u32; 5] = [1, 2, 3, 4, 5];
    /// Large grid resolutions (the paper's Sinkhorn regime, Figures 9f–j;
    /// at d ≤ 20 the exact LP still solves every support).
    pub const D_LARGE: [u32; 5] = [1, 5, 10, 15, 20];
    /// Small privacy budgets (Figures 9k–o).
    pub const EPS_SMALL: [f64; 5] = [0.7, 1.4, 2.1, 2.8, 3.5];
    /// Large privacy budgets (Figures 9p–t).
    pub const EPS_LARGE: [f64; 5] = [5.0, 6.0, 7.0, 8.0, 9.0];
    /// Default discrete side length (bold in Table IV).
    pub const D_DEFAULT: u32 = 15;
    /// Default budget for the d sweeps (bold in Table IV).
    pub const EPS_DEFAULT: f64 = 3.5;
    /// Budget used for the large-d sweep (§VII-C2).
    pub const EPS_LARGE_D: f64 = 5.0;
}

/// Table V: the trajectory-experiment parameter grid.
pub struct Table5;

impl Table5 {
    /// Grid resolutions of Figure 14(a).
    pub const D_VALUES: [u32; 5] = [1, 5, 10, 15, 20];
    /// Privacy budgets of Figure 14(b).
    pub const EPS_VALUES: [f64; 5] = [0.5, 1.0, 1.5, 2.0, 2.5];
    /// Defaults (d = 15, ε = 1.5).
    pub const D_DEFAULT: u32 = 15;
    /// Default trajectory budget.
    pub const EPS_DEFAULT: f64 = 1.5;
    /// Workload shape: base grid, trajectory count, length range.
    pub const BASE_GRID: u32 = 300;
    /// Number of sampled trajectories.
    pub const N_TRAJS: usize = 1000;
    /// Trajectory length range.
    pub const LEN_RANGE: (usize, usize) = (2, 200);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_match_table_iv() {
        assert_eq!(Table4::EPS_SMALL.len() + Table4::EPS_LARGE.len(), 10);
        assert_eq!(Table4::D_SMALL[4], 5);
        assert_eq!(Table4::D_LARGE[4], 20);
        assert_eq!(Table4::B_FACTORS[2], 1.0);
    }

    #[test]
    fn grids_match_table_v() {
        assert_eq!(Table5::EPS_VALUES, [0.5, 1.0, 1.5, 2.0, 2.5]);
        assert_eq!(Table5::N_TRAJS, 1000);
        assert_eq!(Table5::LEN_RANGE, (2, 200));
        assert_eq!(Table5::BASE_GRID, 300);
    }
}

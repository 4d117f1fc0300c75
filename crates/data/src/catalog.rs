//! The named evaluation datasets with the paper's Table III geometry.
//!
//! Each dataset is a set of named *parts*; the real datasets are split
//! into Parts A/B/C (squares over different neighbourhoods, Table III)
//! and evaluated part-by-part with the mean W₂ reported, exactly as
//! §VII-C prescribes. Synthetic datasets have a single part covering
//! their full extent.

use crate::city::{generate_city, CityConfig};
use crate::synthetic::{mnormal_dataset, normal_dataset, szipf_dataset};
use dam_geo::rng::derived;
use dam_geo::{BoundingBox, Point};

/// One evaluation region: a square extent plus the points inside it.
#[derive(Debug, Clone)]
pub struct DatasetPart {
    /// Part label ("A", "B", "C" or "full").
    pub name: String,
    /// The square evaluation region.
    pub bbox: BoundingBox,
    /// The points of this part (all inside `bbox`).
    pub points: Vec<Point>,
}

/// A named dataset: one or more parts.
#[derive(Debug, Clone)]
pub struct SpatialDataset {
    /// Dataset label as used in the paper's figures.
    pub name: &'static str,
    /// The evaluation parts.
    pub parts: Vec<DatasetPart>,
}

impl SpatialDataset {
    /// Total number of points across parts.
    pub fn total_points(&self) -> usize {
        self.parts.iter().map(|p| p.points.len()).sum()
    }
}

/// Which dataset to load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DatasetKind {
    /// Chicago-Crimes-like city simulation, Parts A/B/C (Table III).
    Crime,
    /// NYC-Green-Taxi-like city simulation, Parts A/B/C (Table III).
    Nyc,
    /// 300k-point correlated Gaussian.
    Normal,
    /// 100k-point skew-Zipf square.
    SZipf,
    /// 300k-point three-component Gaussian mixture.
    MNormal,
    /// The full-domain Crime variant of Appendix C (101,146 points).
    CrimeFull,
    /// The full-domain NYC variant used as the trajectory base of
    /// Appendix D (446,110 points).
    NycFull,
}

impl DatasetKind {
    /// All five headline datasets in figure order.
    pub const FIGURE_ORDER: [DatasetKind; 5] = [
        DatasetKind::Crime,
        DatasetKind::Nyc,
        DatasetKind::Normal,
        DatasetKind::SZipf,
        DatasetKind::MNormal,
    ];

    /// Paper label.
    pub fn label(self) -> &'static str {
        match self {
            DatasetKind::Crime => "Crime",
            DatasetKind::Nyc => "NYC",
            DatasetKind::Normal => "Normal",
            DatasetKind::SZipf => "SZipf",
            DatasetKind::MNormal => "MNormal",
            DatasetKind::CrimeFull => "Crime-full",
            DatasetKind::NycFull => "NYC-full",
        }
    }
}

/// Table III: the Part A/B/C extents and point counts for Chicago Crimes.
const CRIME_PARTS: [(&str, f64, f64, f64, f64, usize); 3] = [
    ("A", 41.72, -87.68, 41.81, -87.59, 216_595),
    ("B", 41.82, -87.73, 41.91, -87.64, 173_552),
    ("C", 41.92, -87.77, 41.99, -87.70, 69_068),
];

/// Table III: the Part A/B/C extents and point counts for NYC Green Taxi.
const NYC_PARTS: [(&str, f64, f64, f64, f64, usize); 3] = [
    ("A", 40.65, -73.84, 40.75, -73.74, 10_561),
    ("B", 40.65, -73.95, 40.74, -73.86, 42_195),
    ("C", 40.82, -73.90, 40.89, -73.83, 9_186),
];

/// Loads (generates) a dataset deterministically from a seed.
pub fn load(kind: DatasetKind, seed: u64) -> SpatialDataset {
    match kind {
        DatasetKind::Crime => city_parts("Crime", &CRIME_PARTS, true, seed),
        DatasetKind::Nyc => city_parts("NYC", &NYC_PARTS, false, seed),
        DatasetKind::Normal => {
            let mut rng = derived(seed, 301);
            let points = normal_dataset(300_000, &mut rng);
            single_part("Normal", points)
        }
        DatasetKind::SZipf => {
            let mut rng = derived(seed, 302);
            let points = szipf_dataset(100_000, &mut rng);
            SpatialDataset {
                name: "SZipf",
                parts: vec![DatasetPart {
                    name: "full".to_string(),
                    bbox: BoundingBox::unit(),
                    points,
                }],
            }
        }
        DatasetKind::MNormal => {
            let mut rng = derived(seed, 303);
            let points = mnormal_dataset(300_000, &mut rng);
            single_part("MNormal", points)
        }
        DatasetKind::CrimeFull => {
            // Appendix C: the whole (coarse) Chicago domain with the
            // paper's 101,146 filtered points.
            let bbox = BoundingBox::new(-87.9, 41.64, -87.52, 42.02);
            let mut rng = derived(seed, 304);
            let points = generate_city(&CityConfig::chicago_like(bbox), 101_146, &mut rng);
            SpatialDataset {
                name: "Crime-full",
                parts: vec![DatasetPart { name: "full".to_string(), bbox, points }],
            }
        }
        DatasetKind::NycFull => {
            // Appendix D's trajectory base: the full NYC pickup domain
            // with the paper's 446,110 filtered points.
            let bbox = BoundingBox::new(-74.05, 40.55, -73.73, 40.88);
            let mut rng = derived(seed, 305);
            let points = generate_city(&CityConfig::nyc_like(bbox), 446_110, &mut rng);
            SpatialDataset {
                name: "NYC-full",
                parts: vec![DatasetPart { name: "full".to_string(), bbox, points }],
            }
        }
    }
}

/// Builds a single-part dataset whose bbox is the points' square extent.
fn single_part(name: &'static str, points: Vec<Point>) -> SpatialDataset {
    #[expect(clippy::expect_used, reason = "every caller passes generated points with n >= 1")]
    let bbox = BoundingBox::of_points(&points).expect("non-empty dataset");
    SpatialDataset { name, parts: vec![DatasetPart { name: "full".to_string(), bbox, points }] }
}

/// Generates the three Table III parts of a city dataset. Each part gets
/// its own city layout seeded independently, so parts behave like
/// different neighbourhoods.
fn city_parts(
    name: &'static str,
    spec: &[(&str, f64, f64, f64, f64, usize)],
    chicago: bool,
    seed: u64,
) -> SpatialDataset {
    let parts = spec
        .iter()
        .enumerate()
        .map(|(i, &(part, min_lat, min_lon, max_lat, max_lon, count))| {
            // Latitude = y, longitude = x, projected directly onto the
            // plane (the paper notes the projection does not affect
            // results).
            let bbox = BoundingBox::new(min_lon, min_lat, max_lon, max_lat);
            let cfg =
                if chicago { CityConfig::chicago_like(bbox) } else { CityConfig::nyc_like(bbox) };
            let mut rng = derived(seed, 400 + i as u64 + if chicago { 0 } else { 10 });
            DatasetPart {
                name: part.to_string(),
                bbox,
                points: generate_city(&cfg, count, &mut rng),
            }
        })
        .collect();
    SpatialDataset { name, parts }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_point_counts_are_reproduced() {
        let crime = load(DatasetKind::Crime, 1);
        assert_eq!(crime.parts.len(), 3);
        assert_eq!(crime.parts[0].points.len(), 216_595);
        assert_eq!(crime.parts[1].points.len(), 173_552);
        assert_eq!(crime.parts[2].points.len(), 69_068);
        let nyc = load(DatasetKind::Nyc, 1);
        assert_eq!(nyc.parts[0].points.len(), 10_561);
        assert_eq!(nyc.parts[1].points.len(), 42_195);
        assert_eq!(nyc.parts[2].points.len(), 9_186);
    }

    #[test]
    fn synthetic_sizes_match_paper() {
        assert_eq!(load(DatasetKind::Normal, 1).total_points(), 300_000);
        assert_eq!(load(DatasetKind::SZipf, 1).total_points(), 100_000);
        assert_eq!(load(DatasetKind::MNormal, 1).total_points(), 300_000);
        assert_eq!(load(DatasetKind::CrimeFull, 1).total_points(), 101_146);
    }

    #[test]
    fn every_part_is_contained_in_its_bbox() {
        for kind in DatasetKind::FIGURE_ORDER {
            let ds = load(kind, 2);
            for part in &ds.parts {
                assert!(
                    part.points.iter().all(|p| part.bbox.contains(*p)),
                    "{} part {} leaks outside its bbox",
                    ds.name,
                    part.name
                );
            }
        }
    }

    #[test]
    fn loading_is_deterministic() {
        let a = load(DatasetKind::SZipf, 42);
        let b = load(DatasetKind::SZipf, 42);
        assert_eq!(a.parts[0].points, b.parts[0].points);
        let c = load(DatasetKind::SZipf, 43);
        assert_ne!(a.parts[0].points, c.parts[0].points);
    }

    #[test]
    fn crime_parts_are_square_regions() {
        let crime = load(DatasetKind::Crime, 1);
        for part in &crime.parts {
            let (w, h) = (part.bbox.width(), part.bbox.height());
            assert!(
                (w - h).abs() / w.max(h) < 0.3,
                "part {} is far from square: {w} × {h}",
                part.name
            );
        }
    }

    #[test]
    fn labels_match_figures() {
        assert_eq!(DatasetKind::Crime.label(), "Crime");
        assert_eq!(DatasetKind::FIGURE_ORDER.len(), 5);
    }
}

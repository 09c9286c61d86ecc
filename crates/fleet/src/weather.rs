//! The shared seeded weather field all nodes sample.
//!
//! One sky, many nodes: the field is a `grid_w × grid_h` regional grid.
//! Irradiance at `(region, epoch)` is the product of three factors:
//!
//! * a **diurnal arc** — dark outside `[dawn, dusk]`, a half-sine between
//!   them (the sim crate's `LightProfile::Diurnal`, restated over a
//!   24-hour day with a 12-hour daylight window);
//! * a **moving cloud front** — a seeded, smoothed 1-D attenuation
//!   profile advected across the grid's x-axis at a constant speed, plus
//!   a per-region fixed jitter (panel tilt, shading). Neighbouring
//!   regions read neighbouring samples of the same profile, so droughts
//!   are spatially *correlated* — a front dims whole swaths of the fleet
//!   at once, which is precisely what per-node independent RNG would
//!   miss;
//! * **storm overlays** — seeded rectangular regions forced dark for
//!   minutes at a time: the fleet's regional brownout storms.
//!
//! Everything is piecewise-constant per `epoch_s` (60 s by default), so a
//! node advancing analytically across an epoch does one O(1) evaluation
//! per segment: no per-node profile Vec, no trigonometry in the hot loop
//! beyond one `sin`. The fleet reads it through a `SkyWindow`, which
//! evaluates each recent `(region, epoch)` once for every node in it.

use hems_core::cachekey::KeyHasher;
use hems_units::XorShiftRng;

/// Seconds per simulated day.
pub const DAY_S: f64 = 86_400.0;
/// Daylight begins at this fraction of the day…
pub const DAWN_FRAC: f64 = 0.25;
/// …and ends at this fraction.
pub const DUSK_FRAC: f64 = 0.75;

/// Length of the seeded cloud-attenuation profile.
const CLOUD_TABLE: usize = 1_024;
/// Heaviest cloud still passes this fraction of the diurnal level.
const CLOUD_FLOOR: f64 = 0.15;
/// Cells the front advances per epoch.
const FRONT_SPEED: f64 = 0.08;

/// A regional blackout: inside the rectangle and the epoch window the
/// sky is forced dark, no matter what the clouds say.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Storm {
    /// First epoch the storm covers.
    pub start_epoch: u32,
    /// First epoch after the storm.
    pub end_epoch: u32,
    /// Left edge (inclusive), in grid cells.
    pub x0: u16,
    /// Right edge (exclusive).
    pub x1: u16,
    /// Top edge (inclusive).
    pub y0: u16,
    /// Bottom edge (exclusive).
    pub y1: u16,
}

impl Storm {
    /// Does the storm cover `(x, y)` at `epoch`?
    pub fn covers(&self, x: u16, y: u16, epoch: u32) -> bool {
        epoch >= self.start_epoch
            && epoch < self.end_epoch
            && x >= self.x0
            && x < self.x1
            && y >= self.y0
            && y < self.y1
    }
}

/// The shared seeded irradiance field. One instance serves the whole
/// fleet; evaluation is a pure O(1) function of `(region, epoch)`.
#[derive(Debug, Clone)]
pub struct WeatherField {
    grid_w: u32,
    grid_h: u32,
    epoch_s: f64,
    cloud: Vec<f64>,
    jitter: Vec<f64>,
    storms: Vec<Storm>,
}

/// An independent, deterministic RNG stream for one named surface of the
/// fleet, so weather draws never perturb storm draws.
pub fn seed_stream(seed: u64, surface: &str) -> XorShiftRng {
    let mut hasher = KeyHasher::new();
    hasher.write_tag("fleet-stream");
    hasher.write_tag(surface);
    hasher.write_u64(seed);
    XorShiftRng::seed_from_u64(hasher.finish())
}

impl WeatherField {
    /// Builds the field for a `grid_w × grid_h` grid with `epoch_s`-second
    /// piecewise-constant epochs, seeding the cloud profile and per-region
    /// jitter from `seed`, with `storms_per_day` seeded storms on each of
    /// `days` days.
    pub fn new(
        seed: u64,
        grid_w: u32,
        grid_h: u32,
        epoch_s: f64,
        days: u32,
        storms_per_day: u32,
    ) -> WeatherField {
        let mut rng = seed_stream(seed, "weather");
        // A smoothed random walk: raw walk first, then a box filter so a
        // front spans tens of cells (spatial coherence) instead of one.
        let mut raw = Vec::with_capacity(CLOUD_TABLE);
        let mut level = 0.6f64;
        for _ in 0..CLOUD_TABLE {
            level += rng.range_f64(-0.22, 0.22);
            level = level.clamp(0.0, 1.0);
            raw.push(level);
        }
        const HALF: usize = 12;
        let cloud: Vec<f64> = (0..CLOUD_TABLE)
            .map(|i| {
                let mut acc = 0.0;
                for k in 0..(2 * HALF + 1) {
                    let idx = (i + CLOUD_TABLE + k - HALF) % CLOUD_TABLE;
                    acc += raw.get(idx).copied().unwrap_or(0.0);
                }
                acc / (2 * HALF + 1) as f64
            })
            .collect();
        let regions = (grid_w * grid_h) as usize;
        let jitter: Vec<f64> = (0..regions).map(|_| rng.range_f64(0.85, 1.0)).collect();

        let mut storm_rng = seed_stream(seed, "storms");
        let mut storms = Vec::new();
        for day in 0..days {
            for _ in 0..storms_per_day {
                // Mid-daylight starts so recovery is observable before
                // dusk; duration in whole epochs.
                let start_s = day as f64 * DAY_S + DAY_S * storm_rng.range_f64(0.32, 0.58);
                let dur_epochs = storm_rng.range_u32(2, 8);
                let start_epoch = (start_s / epoch_s) as u32;
                let w = storm_rng.range_u32(grid_w / 4, grid_w / 2 + 1) as u16;
                let h = storm_rng.range_u32(grid_h / 4, grid_h / 2 + 1) as u16;
                let x0 = storm_rng.below_u32(grid_w) as u16;
                let y0 = storm_rng.below_u32(grid_h) as u16;
                storms.push(Storm {
                    start_epoch,
                    end_epoch: start_epoch + dur_epochs,
                    x0,
                    x1: (x0 + w).min(grid_w as u16),
                    y0,
                    y1: (y0 + h).min(grid_h as u16),
                });
            }
        }
        WeatherField {
            grid_w,
            grid_h,
            epoch_s,
            cloud,
            jitter,
            storms,
        }
    }

    /// Grid width in regions.
    pub fn grid_w(&self) -> u32 {
        self.grid_w
    }

    /// Grid height in regions.
    pub fn grid_h(&self) -> u32 {
        self.grid_h
    }

    /// Number of regions.
    pub fn regions(&self) -> u32 {
        self.grid_w * self.grid_h
    }

    /// Seconds per piecewise-constant weather epoch.
    pub fn epoch_s(&self) -> f64 {
        self.epoch_s
    }

    /// The seeded storms, in generation order.
    pub fn storms(&self) -> &[Storm] {
        &self.storms
    }

    /// The diurnal factor at absolute time `t` (0 at night, half-sine
    /// peaking at solar noon).
    pub fn diurnal(t: f64) -> f64 {
        let phase = (t / DAY_S).rem_euclid(1.0);
        if !(DAWN_FRAC..=DUSK_FRAC).contains(&phase) {
            return 0.0;
        }
        let x = (phase - DAWN_FRAC) / (DUSK_FRAC - DAWN_FRAC);
        (std::f64::consts::PI * x).sin().max(0.0)
    }

    /// The cloud attenuation factor (storms excluded) for grid cell
    /// `(x, y)` at `epoch` — in `[CLOUD_FLOOR, 1]` before jitter.
    fn cloud_factor(&self, x: u32, y: u32, epoch: u32) -> f64 {
        // Advect the profile along x; offset rows so fronts arrive at
        // slightly different times per row (a slanted front line).
        let u = x as f64 + FRONT_SPEED * epoch as f64 + y as f64 * 0.37;
        let pos = u.rem_euclid(CLOUD_TABLE as f64);
        let i = pos as usize % CLOUD_TABLE;
        let j = (i + 1) % CLOUD_TABLE;
        let frac = pos - pos.floor();
        let a = self.cloud.get(i).copied().unwrap_or(0.5);
        let b = self.cloud.get(j).copied().unwrap_or(0.5);
        let v = a + (b - a) * frac;
        CLOUD_FLOOR + (1.0 - CLOUD_FLOOR) * v
    }

    /// Irradiance (fraction of full sun, `[0, 1]`) for `region` during
    /// `epoch`. Pure and O(1): safe to call lazily, out of order, from a
    /// node advancing over past epochs.
    pub fn irradiance(&self, region: u32, epoch: u32) -> f64 {
        // Sample the diurnal arc mid-epoch so the value is representative
        // of the whole piecewise-constant segment.
        let t = (epoch as f64 + 0.5) * self.epoch_s;
        let d = Self::diurnal(t);
        if d <= 0.0 {
            return 0.0;
        }
        let x = region % self.grid_w;
        let y = region / self.grid_w;
        if self
            .storms
            .iter()
            .any(|s| s.covers(x as u16, y as u16, epoch))
        {
            return 0.0;
        }
        let jitter = self.jitter.get(region as usize).copied().unwrap_or(1.0);
        (d * self.cloud_factor(x, y, epoch) * jitter).clamp(0.0, 1.0)
    }

    /// The region's cloud-and-jitter factor at solar noon of `day` — the
    /// planner's daily "forecast" input (storms deliberately excluded: a
    /// plan is drawn from the expected sky, storms are the surprise).
    pub fn noon_forecast(&self, region: u32, day: u32) -> f64 {
        let noon_epoch = ((day as f64 + 0.5) * DAY_S / self.epoch_s) as u32;
        let x = region % self.grid_w;
        let y = region / self.grid_w;
        let jitter = self.jitter.get(region as usize).copied().unwrap_or(1.0);
        (self.cloud_factor(x, y, noon_epoch) * jitter).clamp(0.0, 1.0)
    }
}

/// Most rows a [`SkyWindow`] holds, whatever lag it is asked to cover.
const SKY_ROWS_MAX: u32 = 64;

/// A rolling window over the sky's most recent epochs: a ring of rows,
/// each holding every region's [`WeatherField::irradiance`] for one
/// epoch, filled on first touch.
///
/// A fleet of nodes lagging the scheduler's clock by at most a few epochs
/// reads each `(region, epoch)` value many times; the window computes it
/// once. Every value it returns is either a row entry that
/// `WeatherField::irradiance` wrote or a direct call to it, so reads are
/// bit-identical to the field in any access order. An epoch older than
/// the window goes straight to the field and evicts nothing: a row is only
/// ever replaced by a newer epoch, after which it is outside the window
/// for good, so no access pattern can thrash.
#[derive(Debug, Default)]
pub(crate) struct SkyWindow {
    /// `rows × regions` values; row `epoch % rows` holds `epoch`.
    values: Vec<f64>,
    /// The epoch each row holds (`None` until first filled).
    tags: Vec<Option<u32>>,
    regions: usize,
    /// The newest epoch any row holds.
    newest: u32,
}

impl SkyWindow {
    /// A window of `rows` epochs (capped at [`SKY_ROWS_MAX`], at least
    /// one) over `regions` regions, every row empty.
    pub(crate) fn new(regions: u32, rows: u32) -> SkyWindow {
        let rows = rows.clamp(1, SKY_ROWS_MAX) as usize;
        SkyWindow {
            values: vec![0.0; rows * regions as usize],
            tags: vec![None; rows],
            regions: regions as usize,
            newest: 0,
        }
    }

    /// Rows in the ring (0 for the default, unsized window, which reads
    /// everything from the field).
    fn rows(&self) -> u32 {
        self.tags.len() as u32
    }

    /// `weather.irradiance(region, epoch)`, from the window when `epoch`
    /// is within it.
    pub(crate) fn irradiance(&mut self, weather: &WeatherField, region: u32, epoch: u32) -> f64 {
        let rows = self.rows();
        let Some(slot) = epoch.checked_rem(rows) else {
            return weather.irradiance(region, epoch);
        };
        if epoch.saturating_add(rows) <= self.newest {
            return weather.irradiance(region, epoch);
        }
        let slot = slot as usize;
        if self.tags.get(slot) != Some(&Some(epoch)) {
            self.fill(weather, slot, epoch);
        }
        self.values
            .get(slot * self.regions + region as usize)
            .copied()
            .unwrap_or_else(|| weather.irradiance(region, epoch))
    }

    /// Writes `epoch`'s row into `slot`, replacing an epoch at least one
    /// window older.
    fn fill(&mut self, weather: &WeatherField, slot: usize, epoch: u32) {
        let start = slot * self.regions;
        if let Some(row) = self.values.get_mut(start..start + self.regions) {
            for (region, value) in row.iter_mut().enumerate() {
                *value = weather.irradiance(region as u32, epoch);
            }
        }
        if let Some(tag) = self.tags.get_mut(slot) {
            *tag = Some(epoch);
        }
        self.newest = self.newest.max(epoch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sky() {
        let a = WeatherField::new(7, 16, 16, 60.0, 2, 3);
        let b = WeatherField::new(7, 16, 16, 60.0, 2, 3);
        for region in [0u32, 17, 255] {
            for epoch in (0..2880).step_by(97) {
                assert_eq!(a.irradiance(region, epoch), b.irradiance(region, epoch));
            }
        }
        let c = WeatherField::new(8, 16, 16, 60.0, 2, 3);
        let differs = (0..2880u32).any(|e| a.irradiance(33, e) != c.irradiance(33, e));
        assert!(differs, "seed must reach the sky");
    }

    #[test]
    fn night_is_dark_and_noon_is_bright() {
        let w = WeatherField::new(1, 16, 16, 60.0, 1, 0);
        // Midnight and just before dawn.
        assert_eq!(w.irradiance(0, 10), 0.0);
        let dawn_epoch = (DAY_S * DAWN_FRAC / 60.0) as u32;
        assert_eq!(w.irradiance(0, dawn_epoch.saturating_sub(2)), 0.0);
        // Noon is at least the floor attenuation times peak.
        let noon = (DAY_S * 0.5 / 60.0) as u32;
        let g = w.irradiance(0, noon);
        assert!(g > 0.1, "noon irradiance {g}");
        assert!(g <= 1.0);
    }

    #[test]
    fn neighbours_are_correlated_far_cells_less_so() {
        let w = WeatherField::new(42, 32, 32, 60.0, 1, 0);
        let noon = (DAY_S * 0.5 / 60.0) as u32;
        let base = w.irradiance(16, noon);
        let near = w.irradiance(17, noon);
        // One cell apart on a 24-cell-wide smoothing window: close.
        assert!(
            (base - near).abs() < 0.25,
            "adjacent cells diverge: {base} vs {near}"
        );
    }

    #[test]
    fn storms_black_out_their_rectangle_only() {
        let mut w = WeatherField::new(3, 8, 8, 60.0, 1, 0);
        let noon = (DAY_S * 0.5 / 60.0) as u32;
        w.storms.push(Storm {
            start_epoch: noon,
            end_epoch: noon + 3,
            x0: 2,
            x1: 5,
            y0: 2,
            y1: 5,
        });
        let inside = 3 * 8 + 3; // (3, 3)
        let outside = 6; // (6, 0)
        assert_eq!(w.irradiance(inside, noon), 0.0);
        assert!(w.irradiance(outside, noon) > 0.0);
        assert!(w.irradiance(inside, noon + 3) > 0.0, "storm ends");
    }

    #[test]
    fn seeded_storms_land_in_daylight() {
        let w = WeatherField::new(11, 32, 32, 60.0, 3, 4);
        assert_eq!(w.storms().len(), 12);
        for s in w.storms() {
            let mid = (s.start_epoch as f64 + 0.5) * 60.0;
            assert!(
                WeatherField::diurnal(mid) > 0.0,
                "storm at epoch {} is at night",
                s.start_epoch
            );
            assert!(s.x1 > s.x0 && s.y1 > s.y0);
        }
    }

    /// Reads `(region, epoch)` through the window and requires the exact
    /// bits of the field.
    fn read_exact(sky: &mut SkyWindow, w: &WeatherField, region: u32, epoch: u32) {
        assert_eq!(
            sky.irradiance(w, region, epoch).to_bits(),
            w.irradiance(region, epoch).to_bits(),
            "region {region} epoch {epoch}"
        );
    }

    #[test]
    fn sky_window_reads_are_bit_identical_in_any_order() {
        use hems_units::XorShiftRng;
        let w = WeatherField::new(9, 8, 8, 60.0, 2, 4);
        assert!(!w.storms().is_empty());
        let epochs = 2 * 1_440u32;
        for wake_s in [600u32, 7_200] {
            let lag = wake_s / 60;
            let rows = lag + 2;

            // Forward: every (region, epoch) in clock order.
            let mut sky = SkyWindow::new(w.regions(), rows);
            assert_eq!(sky.rows(), rows.min(SKY_ROWS_MAX));
            for epoch in 0..epochs {
                for region in 0..w.regions() {
                    read_exact(&mut sky, &w, region, epoch);
                }
            }

            // Seeded-random reads trailing the clock by up to the lag —
            // beyond the cap at wake_s = 7200, so some take the fallback —
            // plus the clock's own epoch, so every pair is read.
            let mut sky = SkyWindow::new(w.regions(), rows);
            let mut rng = XorShiftRng::seed_from_u64(u64::from(wake_s));
            for now in 0..epochs {
                for region in 0..w.regions() {
                    read_exact(&mut sky, &w, region, now);
                    let back = rng.below_u32(lag + 1).min(now);
                    read_exact(&mut sky, &w, rng.below_u32(w.regions()), now - back);
                }
            }

            // Far-backward reads take the exact path and evict no row.
            let tags = sky.tags.clone();
            for epoch in 0..epochs - sky.rows() {
                for region in 0..w.regions() {
                    read_exact(&mut sky, &w, region, epoch);
                }
            }
            assert_eq!(sky.tags, tags, "a stale read evicted a row");
        }

        // The unsized default window reads everything from the field.
        let mut sky = SkyWindow::default();
        for epoch in (0..epochs).step_by(13) {
            read_exact(&mut sky, &w, 5, epoch);
        }
    }

    #[test]
    fn forecast_tracks_the_noon_sky() {
        let w = WeatherField::new(5, 16, 16, 60.0, 1, 0);
        let noon = (DAY_S * 0.5 / 60.0) as u32;
        for region in [0u32, 100, 200] {
            let f = w.noon_forecast(region, 0);
            let g = w.irradiance(region, noon);
            // irradiance = diurnal(≈1.0 at noon) × the forecast factor.
            assert!((f - g).abs() < 0.05, "region {region}: {f} vs {g}");
            assert!((0.0..=1.0).contains(&f));
        }
    }
}

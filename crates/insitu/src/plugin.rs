//! The Damaris-side in-situ coupling: the same kernels as [`crate::libsim`],
//! packaged as a dedicated-core plugin.
//!
//! §V.C: "We have embedded the VisIt visualization software in Damaris and
//! leveraged the high level description of data structures in the XML
//! files to seamlessly connect any simulation to this visualization
//! backend. […] By using dedicated cores, all analysis and visualization
//! operations run in parallel with the simulation without impacting it."
//!
//! The XML data description supplies the grid shapes, so — unlike the
//! libsim adaptor — the simulation contributes *nothing* beyond its
//! ordinary `write` calls.

use damaris_core::plugins::{IterationCtx, Plugin};
use damaris_xml::schema::ElemType;
use parking_lot::Mutex;

use crate::kernels::{histogram, isosurface, render, Grid3, IsoCensus};

/// What the plugin computed for one iteration.
#[derive(Debug, Clone)]
pub struct AnalysisRecord {
    /// Iteration analyzed.
    pub iteration: u64,
    /// Per-(variable, source) isosurface censuses.
    pub isosurfaces: Vec<(String, IsoCensus)>,
    /// Mean image intensity per variable block.
    pub image_means: Vec<(String, f32)>,
    /// Histogram mode bin per variable block.
    pub mode_bins: Vec<(String, usize)>,
    /// Seconds of dedicated-core time spent (the simulation saw none of
    /// this).
    pub seconds: f64,
}

/// In-situ analysis plugin for the Damaris dedicated cores.
///
/// Action parameters:
/// * `iso_fraction` — isovalue as a fraction of each block's value range
///   (default 0.5),
/// * `bins` — histogram bins (default 32),
/// * `min_dims` — only analyze variables with at least this many
///   dimensions (default 3; keeps 1-D diagnostics out of the renderer).
#[derive(Debug, Default)]
pub struct InSituPlugin {
    records: Mutex<Vec<AnalysisRecord>>,
}

impl InSituPlugin {
    /// New plugin with empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Analysis history (clone).
    pub fn records(&self) -> Vec<AnalysisRecord> {
        self.records.lock().clone()
    }

    /// Total dedicated-core seconds spent analyzing.
    pub fn total_seconds(&self) -> f64 {
        self.records.lock().iter().map(|r| r.seconds).sum()
    }
}

impl Plugin for InSituPlugin {
    fn name(&self) -> &str {
        "insitu"
    }

    fn on_iteration(&self, ctx: &IterationCtx<'_>) -> Result<(), String> {
        let t0 = std::time::Instant::now();
        let iso_fraction: f64 = match ctx.action.param("iso_fraction") {
            Some(s) => s.parse().map_err(|_| format!("bad iso_fraction '{s}'"))?,
            None => 0.5,
        };
        let bins: usize = match ctx.action.param("bins") {
            Some(s) => s.parse().map_err(|_| format!("bad bins '{s}'"))?,
            None => 32,
        };
        let min_dims: usize = match ctx.action.param("min_dims") {
            Some(s) => s.parse().map_err(|_| format!("bad min_dims '{s}'"))?,
            None => 3,
        };

        let mut record = AnalysisRecord {
            iteration: ctx.iteration,
            isosurfaces: Vec::new(),
            image_means: Vec::new(),
            mode_bins: Vec::new(),
            seconds: 0.0,
        };
        for block in ctx.blocks {
            let layout = ctx.config.layout_of_id(block.variable);
            if layout.dimensions.len() < min_dims {
                continue;
            }
            // Normalize to 3-D: trailing dims beyond 3 are folded into z.
            let dims = &layout.dimensions;
            let (nz, ny, nx) = match dims.len() {
                3 => (dims[0], dims[1], dims[2]),
                n => (dims[..n - 2].iter().product(), dims[n - 2], dims[n - 1]),
            };
            let values: Vec<f64> = match layout.elem_type {
                ElemType::F64 => block.data.as_pod::<f64>().to_vec(),
                ElemType::F32 => block
                    .data
                    .as_pod::<f32>()
                    .iter()
                    .map(|&v| v as f64)
                    .collect(),
                _ => continue,
            };
            let grid = Grid3::new(&values, nx, ny, nz);
            let (min, max) = grid.min_max();
            let iso = min + (max - min) * iso_fraction;
            let tag = format!(
                "{}/rank{}",
                ctx.config.var_name(block.variable),
                block.source
            );
            record
                .isosurfaces
                .push((tag.clone(), isosurface(&grid, iso)));
            record.image_means.push((tag.clone(), render(&grid).mean()));
            record
                .mode_bins
                .push((tag, histogram(&grid, bins).mode_bin()));
        }
        record.seconds = t0.elapsed().as_secs_f64();
        self.records.lock().push(record);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use damaris_core::store::StoredBlock;
    use damaris_shm::SharedSegment;
    use damaris_xml::schema::{Action, Configuration, Trigger};

    fn config() -> Configuration {
        Configuration::from_str(
            r#"<simulation name="t"><data>
                 <layout name="vol" type="f64" dimensions="8,8,8"/>
                 <layout name="line" type="f64" dimensions="16"/>
                 <variable name="field" layout="vol"/>
                 <variable name="diag" layout="line"/>
               </data></simulation>"#,
        )
        .unwrap()
    }

    fn action(params: Vec<(&str, &str)>) -> Action {
        Action {
            name: "viz".into(),
            plugin: "insitu".into(),
            trigger: Trigger::EndOfIteration { frequency: 1 },
            params: params
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
        }
    }

    fn sphere_block(seg: &SharedSegment, cfg: &Configuration, var: &str) -> StoredBlock {
        let mut vals = Vec::with_capacity(512);
        for k in 0..8 {
            for j in 0..8 {
                for i in 0..8 {
                    let d = ((i as f64 - 3.5).powi(2)
                        + (j as f64 - 3.5).powi(2)
                        + (k as f64 - 3.5).powi(2))
                    .sqrt();
                    vals.push(d);
                }
            }
        }
        let mut b = seg.allocate(512 * 8).unwrap();
        b.write_pod(&vals);
        StoredBlock {
            variable: cfg.registry().var_id(var).unwrap(),
            source: 0,
            iteration: 1,
            data: b.freeze().into(),
        }
    }

    #[test]
    fn analyzes_3d_blocks_only() {
        let cfg = config();
        let seg = SharedSegment::new(1 << 16).unwrap();
        let mut blocks = vec![sphere_block(&seg, &cfg, "field")];
        let mut b = seg.allocate(16 * 8).unwrap();
        b.write_pod(&[1.0f64; 16]);
        blocks.push(StoredBlock {
            variable: cfg.registry().var_id("diag").unwrap(),
            source: 0,
            iteration: 1,
            data: b.freeze().into(),
        });
        let plugin = InSituPlugin::new();
        let act = action(vec![]);
        let ctx = IterationCtx {
            iteration: 1,
            node_id: 0,
            simulation: "t",
            blocks: &blocks,
            config: &cfg,
            output_dir: std::path::Path::new("/tmp"),
            action: &act,
        };
        plugin.on_iteration(&ctx).unwrap();
        let records = plugin.records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].isosurfaces.len(), 1, "1-D diagnostic skipped");
        assert!(
            records[0].isosurfaces[0].1.active_cells > 0,
            "sphere surface found"
        );
        assert!(plugin.total_seconds() >= 0.0);
    }

    #[test]
    fn params_validated() {
        let cfg = config();
        let seg = SharedSegment::new(1 << 16).unwrap();
        let blocks = vec![sphere_block(&seg, &cfg, "field")];
        let plugin = InSituPlugin::new();
        let act = action(vec![("bins", "lots")]);
        let ctx = IterationCtx {
            iteration: 1,
            node_id: 0,
            simulation: "t",
            blocks: &blocks,
            config: &cfg,
            output_dir: std::path::Path::new("/tmp"),
            action: &act,
        };
        assert!(plugin.on_iteration(&ctx).is_err());
    }
}

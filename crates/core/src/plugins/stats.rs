//! Streaming statistics plugin — the "statistical analysis using Python
//! scripts" class of services from §III.A, in Rust.

use std::collections::BTreeMap;

use damaris_xml::schema::ElemType;
use parking_lot::Mutex;

use super::{IterationCtx, Plugin};

/// Summary of one variable at one iteration (across all of the node's
/// clients).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariableSummary {
    /// Number of elements aggregated.
    pub count: u64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub stddev: f64,
}

impl VariableSummary {
    fn from_values(values: impl Iterator<Item = f64>) -> Option<Self> {
        let mut count = 0u64;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for v in values {
            count += 1;
            min = min.min(v);
            max = max.max(v);
            sum += v;
            sumsq += v * v;
        }
        if count == 0 {
            return None;
        }
        let mean = sum / count as f64;
        let var = (sumsq / count as f64 - mean * mean).max(0.0);
        Some(VariableSummary {
            count,
            min,
            max,
            mean,
            stddev: var.sqrt(),
        })
    }
}

/// Computes min/max/mean/σ for every floating-point variable at every
/// completed iteration. Integer variables are counted but not summarized.
#[derive(Debug, Default)]
pub struct StatsPlugin {
    /// iteration → variable → summary.
    results: Mutex<BTreeMap<u64, BTreeMap<String, VariableSummary>>>,
}

impl StatsPlugin {
    /// New plugin with empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of iterations summarized so far.
    pub fn iterations_seen(&self) -> u64 {
        self.results.lock().len() as u64
    }

    /// Summary for a variable at an iteration, if computed.
    pub fn summary(&self, iteration: u64, variable: &str) -> Option<VariableSummary> {
        self.results
            .lock()
            .get(&iteration)
            .and_then(|m| m.get(variable))
            .copied()
    }

    /// All results (clone).
    pub fn all(&self) -> BTreeMap<u64, BTreeMap<String, VariableSummary>> {
        self.results.lock().clone()
    }
}

impl Plugin for StatsPlugin {
    fn name(&self) -> &str {
        "stats"
    }

    fn on_iteration(&self, ctx: &IterationCtx<'_>) -> Result<(), String> {
        let mut per_var: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for block in ctx.blocks {
            let layout = ctx.config.layout_of_id(block.variable);
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
            per_var
                .entry(ctx.config.var_name(block.variable).to_string())
                .or_default()
                .extend(values);
        }
        let mut summaries = BTreeMap::new();
        for (var, values) in per_var {
            if let Some(s) = VariableSummary::from_values(values.into_iter()) {
                summaries.insert(var, s);
            }
        }
        self.results.lock().insert(ctx.iteration, summaries);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoredBlock;
    use damaris_shm::SharedSegment;
    use damaris_xml::schema::{Action, Configuration, Trigger};

    fn config() -> Configuration {
        Configuration::from_str(
            r#"<simulation name="t"><data>
                 <layout name="l64" type="f64" dimensions="4"/>
                 <layout name="l32" type="f32" dimensions="4"/>
                 <layout name="li" type="i32" dimensions="4"/>
                 <variable name="a" layout="l64"/>
                 <variable name="b" layout="l32"/>
                 <variable name="c" layout="li"/>
               </data></simulation>"#,
        )
        .unwrap()
    }

    fn action() -> Action {
        Action {
            name: "stats".into(),
            plugin: "stats".into(),
            trigger: Trigger::EndOfIteration { frequency: 1 },
            params: vec![],
        }
    }

    #[test]
    fn summaries_across_sources() {
        let cfg = config();
        let seg = SharedSegment::new(1 << 12).unwrap();
        let mut blocks = Vec::new();
        // Variable "a" written by two clients: [0,1,2,3] and [4,5,6,7].
        for src in 0..2usize {
            let mut b = seg.allocate(32).unwrap();
            let vals: Vec<f64> = (0..4).map(|i| (src * 4 + i) as f64).collect();
            b.write_pod(&vals);
            blocks.push(StoredBlock {
                variable: cfg.registry().var_id("a").unwrap(),
                source: src,
                iteration: 2,
                data: b.freeze().into(),
            });
        }
        // f32 variable.
        let mut b = seg.allocate(16).unwrap();
        b.write_pod(&[1.0f32, 1.0, 1.0, 1.0]);
        blocks.push(StoredBlock {
            variable: cfg.registry().var_id("b").unwrap(),
            source: 0,
            iteration: 2,
            data: b.freeze().into(),
        });
        // Integer variable: skipped by the summarizer.
        let mut b = seg.allocate(16).unwrap();
        b.write_pod(&[5i32, 5, 5, 5]);
        blocks.push(StoredBlock {
            variable: cfg.registry().var_id("c").unwrap(),
            source: 0,
            iteration: 2,
            data: b.freeze().into(),
        });

        let plugin = StatsPlugin::new();
        let act = action();
        let ctx = IterationCtx {
            iteration: 2,
            node_id: 0,
            simulation: "t",
            blocks: &blocks,
            config: &cfg,
            output_dir: std::path::Path::new("/tmp"),
            action: &act,
        };
        plugin.on_iteration(&ctx).unwrap();

        let a = plugin.summary(2, "a").unwrap();
        assert_eq!(a.count, 8);
        assert_eq!(a.min, 0.0);
        assert_eq!(a.max, 7.0);
        assert!((a.mean - 3.5).abs() < 1e-12);
        assert!((a.stddev - 2.29128784747792).abs() < 1e-9);

        let b = plugin.summary(2, "b").unwrap();
        assert_eq!(b.stddev, 0.0);
        assert!(plugin.summary(2, "c").is_none(), "integers not summarized");
        assert_eq!(plugin.iterations_seen(), 1);
    }

    #[test]
    fn empty_iteration_counted() {
        let cfg = config();
        let plugin = StatsPlugin::new();
        let act = action();
        let ctx = IterationCtx {
            iteration: 0,
            node_id: 0,
            simulation: "t",
            blocks: &[],
            config: &cfg,
            output_dir: std::path::Path::new("/tmp"),
            action: &act,
        };
        plugin.on_iteration(&ctx).unwrap();
        assert_eq!(plugin.iterations_seen(), 1);
        assert!(plugin.summary(0, "a").is_none());
    }
}

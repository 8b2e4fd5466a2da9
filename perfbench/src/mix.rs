//! Seeded request mixes for the serve workloads, their NDJSON lines, and
//! reference answers computed directly through the core kernels.

use std::collections::BTreeMap;

use archline_core::power::sample_intensities;
use archline_core::{crossovers, EnergyRoofline, MachineParams, Metric, PowerCap, RooflinePlan};
use archline_platforms::{all_platforms, Platform, Precision};
use archline_serve::protocol::{parse_line, WireMsg};
use archline_serve::{CapOverride, Query, QueryResult, Request, Response, SweepMetric};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;

/// Which traffic a pool is drawn from. Evals have 1–8 points and
/// crossovers a 64–512-point grid in both.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 80% evals, 15% sweeps of 16–128 points, 5% crossovers.
    Mixed,
    /// 70% sweeps of 256–2048 points, 20% evals, 10% crossovers.
    SweepHeavy,
}

/// One distinct request with everything needed to send and check it.
pub struct Template {
    pub req: Request,
    /// The request as one NDJSON line (no newline).
    pub line: String,
    /// The reference answer, computed once.
    pub reference: QueryResult,
    /// The reference answer's `result` field as the wire renders it.
    pub reference_text: String,
    plan: RooflinePlan,
    other: Option<MachineParams>,
}

/// Throttle factors for cap overrides (or uncapped). With ~20
/// platform/precision pairs, a quarter of the requests carrying one of
/// these gives well over 2×32 distinct plans, past the per-worker plan
/// cache at two shards.
const THROTTLES: [f64; 8] = [1.25, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0, 8.0];
const METRICS: [SweepMetric; 3] = [
    SweepMetric::Power,
    SweepMetric::Perf,
    SweepMetric::EnergyEff,
];

fn log_uniform(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    (lo.ln() + rng.gen_range(0.0..1.0) * (hi.ln() - lo.ln())).exp()
}

/// Platform parameters after a cap override, as the server resolves them.
fn resolve(
    platform: &Platform,
    double: bool,
    cap: Option<CapOverride>,
) -> Result<MachineParams, String> {
    let precision = if double {
        Precision::Double
    } else {
        Precision::Single
    };
    let params = platform
        .machine_params(precision)
        .map_err(|e| format!("{}: {e}", platform.name))?;
    Ok(match cap {
        None => params,
        Some(CapOverride::Uncapped) => params.uncapped(),
        Some(CapOverride::Throttle(k)) => params.throttled(k),
        Some(CapOverride::Watts(w)) => MachineParams {
            cap: PowerCap::Capped(w),
            ..params
        },
    })
}

/// Kinds of request, in the mix's exact proportions per 20.
#[derive(Clone, Copy)]
enum Kind {
    Eval,
    Sweep,
    Crossover,
}

/// Draws `n` distinct requests of `mix` from `seed`. The composition —
/// shares of kinds, of cap overrides, and of sizes — is fixed and only
/// its arrangement and the parameters come from the seed, so runs at
/// different seeds measure the same amount of work.
pub fn generate(mix: Mix, seed: u64, n: usize) -> Result<Vec<Template>, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let platforms = all_platforms();
    let bases: Vec<(usize, bool)> = platforms
        .iter()
        .enumerate()
        .flat_map(|(i, p)| {
            let double = p.supports_double().then_some((i, true));
            std::iter::once((i, false)).chain(double)
        })
        .collect();
    let (evals, sweeps) = match mix {
        Mix::Mixed => (16, 3),
        Mix::SweepHeavy => (4, 14),
    };
    let mut kinds: Vec<Kind> = (0..n)
        .map(|i| match i % 20 {
            k if k < evals => Kind::Eval,
            k if k < evals + sweeps => Kind::Sweep,
            _ => Kind::Crossover,
        })
        .collect();
    let mut capped: Vec<bool> = (0..n).map(|i| i % 4 == 0).collect();
    shuffle(&mut kinds, &mut rng);
    shuffle(&mut capped, &mut rng);
    // Sizes cycle through eight steps per kind, so each pool has the same
    // spread of sizes.
    let mut count = [0usize; 3];
    kinds
        .iter()
        .zip(&capped)
        .enumerate()
        .map(|(id, (&kind, &capped))| {
            let step = |k: usize, count: &mut [usize; 3]| {
                count[k] += 1;
                (count[k] - 1) % 8 + 1
            };
            let (pi, double) = bases[rng.gen_range(0..bases.len())];
            let cap = capped.then(|| {
                let k = rng.gen_range(0..=THROTTLES.len());
                THROTTLES
                    .get(k)
                    .map_or(CapOverride::Uncapped, |&t| CapOverride::Throttle(t))
            });
            let metric = METRICS[rng.gen_range(0..METRICS.len())];
            let query = match kind {
                Kind::Eval => {
                    let n = step(0, &mut count);
                    let flops = (0..n).map(|_| log_uniform(&mut rng, 1e6, 1e13)).collect();
                    let bytes = (0..n).map(|_| log_uniform(&mut rng, 1e5, 1e12)).collect();
                    Query::Eval { flops, bytes }
                }
                Kind::Sweep => {
                    let points = step(1, &mut count)
                        * match mix {
                            Mix::Mixed => 16,
                            Mix::SweepHeavy => 256,
                        };
                    let lo = log_uniform(&mut rng, 0.125, 1.0);
                    let hi = log_uniform(&mut rng, 32.0, 512.0);
                    Query::Sweep {
                        metric,
                        lo,
                        hi,
                        points,
                    }
                }
                Kind::Crossover => {
                    // The comparison platform must have a model at the
                    // same precision, or admission rejects the request.
                    let others: Vec<&Platform> = platforms
                        .iter()
                        .enumerate()
                        .filter(|&(j, p)| j != pi && (!double || p.supports_double()))
                        .map(|(_, p)| p)
                        .collect();
                    let other = others[rng.gen_range(0..others.len())].name.clone();
                    let grid = 64 * step(2, &mut count);
                    Query::Crossover {
                        other,
                        metric,
                        lo: 0.125,
                        hi: 512.0,
                        grid,
                    }
                }
            };
            let req = Request {
                id: id as u64,
                platform: platforms[pi].name.clone(),
                double_precision: double,
                cap,
                deadline_ms: None,
                trace: None,
                query,
            };
            Template::new(req, &platforms)
        })
        .collect()
}

/// Fisher–Yates.
fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

impl Template {
    fn new(req: Request, platforms: &[Platform]) -> Result<Template, String> {
        let find = |name: &str| {
            platforms
                .iter()
                .find(|p| p.name == name)
                .ok_or_else(|| format!("no platform `{name}`"))
        };
        let params = resolve(find(&req.platform)?, req.double_precision, req.cap)?;
        let other = match &req.query {
            Query::Crossover { other, .. } => {
                Some(resolve(find(other)?, req.double_precision, None)?)
            }
            _ => None,
        };
        let line = request_line(&req);
        // The line must parse back to exactly this request, or the TCP
        // workload would ask the server something else than it checks.
        match parse_line(&line) {
            Ok(WireMsg::Request(parsed)) if parsed == req => {}
            other => {
                return Err(format!(
                    "request line does not round-trip: {line} -> {other:?}"
                ))
            }
        }
        let mut t = Template {
            req,
            line,
            reference: QueryResult::Crossover {
                crossings: Vec::new(),
            },
            reference_text: String::new(),
            plan: RooflinePlan::new(params),
            other,
        };
        t.reference = t.evaluate();
        let rendered = Response::new(t.req.id, Ok(t.reference.clone())).to_json_line();
        t.reference_text = result_field(&rendered)
            .ok_or("reference has no result")?
            .to_string();
        Ok(t)
    }

    /// The answer computed directly through the `RooflinePlan` batch
    /// kernels (and the core crossover search), on the calling thread.
    pub fn evaluate(&self) -> QueryResult {
        let plan = &self.plan;
        match &self.req.query {
            Query::Eval { flops, bytes } => {
                let n = flops.len();
                let (mut time, mut energy, mut power) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
                let mut regime = vec![archline_core::Regime::MemoryBound; n];
                plan.evaluate_batch(
                    flops,
                    bytes,
                    &mut time,
                    &mut energy,
                    &mut power,
                    &mut regime,
                );
                let regime = regime.iter().map(|r| r.letter()).collect();
                QueryResult::Eval {
                    time,
                    energy,
                    power,
                    regime,
                }
            }
            Query::Sweep {
                metric,
                lo,
                hi,
                points,
            } => {
                let intensity = sample_intensities(*lo, *hi, *points);
                let mut value = vec![0.0; intensity.len()];
                match metric {
                    SweepMetric::Power => plan.avg_power_batch(&intensity, &mut value),
                    SweepMetric::Perf => plan.perf_batch(&intensity, &mut value),
                    SweepMetric::EnergyEff => plan.energy_eff_batch(&intensity, &mut value),
                }
                QueryResult::Sweep { intensity, value }
            }
            Query::Crossover {
                metric,
                lo,
                hi,
                grid,
                ..
            } => {
                let a = EnergyRoofline::new(*plan.params());
                let b =
                    EnergyRoofline::new(self.other.expect("crossover templates resolve `other`"));
                let metric = match metric {
                    SweepMetric::Power => Metric::Power,
                    SweepMetric::Perf => Metric::Performance,
                    SweepMetric::EnergyEff => Metric::EnergyEfficiency,
                };
                let crossings = crossovers(&a, &b, metric, *lo, *hi, *grid)
                    .into_iter()
                    .map(|c| (c.intensity, c.a_leads_below))
                    .collect();
                QueryResult::Crossover { crossings }
            }
        }
    }
}

fn request_line(req: &Request) -> String {
    let num = |x: f64| Value::from(x);
    let arr = |xs: &[f64]| Value::Array(xs.iter().map(|&x| num(x)).collect());
    let mut q: BTreeMap<String, Value> = BTreeMap::new();
    match &req.query {
        Query::Eval { flops, bytes } => {
            q.insert("kind".into(), "eval".into());
            q.insert("flops".into(), arr(flops));
            q.insert("bytes".into(), arr(bytes));
        }
        Query::Sweep {
            metric,
            lo,
            hi,
            points,
        } => {
            q.insert("kind".into(), "sweep".into());
            q.insert("metric".into(), metric.name().into());
            q.insert("lo".into(), num(*lo));
            q.insert("hi".into(), num(*hi));
            q.insert("points".into(), Value::from(*points as u64));
        }
        Query::Crossover {
            other,
            metric,
            lo,
            hi,
            grid,
        } => {
            q.insert("kind".into(), "crossover".into());
            q.insert("other".into(), other.as_str().into());
            q.insert("metric".into(), metric.name().into());
            q.insert("lo".into(), num(*lo));
            q.insert("hi".into(), num(*hi));
            q.insert("grid".into(), Value::from(*grid as u64));
        }
    }
    let mut obj: BTreeMap<String, Value> = BTreeMap::new();
    obj.insert("id".into(), Value::from(req.id));
    obj.insert("platform".into(), req.platform.as_str().into());
    if req.double_precision {
        obj.insert("precision".into(), "double".into());
    }
    match req.cap {
        None => {}
        Some(CapOverride::Uncapped) => {
            obj.insert("cap".into(), "uncapped".into());
        }
        Some(CapOverride::Throttle(k)) => {
            obj.insert(
                "cap".into(),
                Value::Object([("throttle".to_string(), num(k))].into()),
            );
        }
        Some(CapOverride::Watts(w)) => {
            obj.insert(
                "cap".into(),
                Value::Object([("watts".to_string(), num(w))].into()),
            );
        }
    }
    obj.insert("query".into(), Value::Object(q));
    serde_json::to_string(&Value::Object(obj)).expect("a JSON tree always serializes")
}

/// The text of a response line's `result` field, which the wire always
/// writes last; `None` for an error response.
pub fn result_field(line: &str) -> Option<&str> {
    let at = line.find(",\"result\":")?;
    line.get(at + 10..line.len().checked_sub(1)?)
}

/// A `u64` field of a response line's `phases_us` object.
pub fn phase_us(line: &str, key: &str) -> Option<u64> {
    let phases = &line[line.find("\"phases_us\":{")?..];
    let at = phases.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: &str = &phases[at..];
    let end = digits
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(digits.len());
    digits[..end].parse().ok()
}

/// Whether two answers are bit-identical.
pub fn same_bits(a: &QueryResult, b: &QueryResult) -> bool {
    fn eq(x: &[f64], y: &[f64]) -> bool {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    }
    match (a, b) {
        (
            QueryResult::Eval {
                time,
                energy,
                power,
                regime,
            },
            QueryResult::Eval {
                time: t2,
                energy: e2,
                power: p2,
                regime: r2,
            },
        ) => eq(time, t2) && eq(energy, e2) && eq(power, p2) && regime == r2,
        (
            QueryResult::Sweep { intensity, value },
            QueryResult::Sweep {
                intensity: i2,
                value: v2,
            },
        ) => eq(intensity, i2) && eq(value, v2),
        (QueryResult::Crossover { crossings }, QueryResult::Crossover { crossings: c2 }) => {
            crossings.len() == c2.len()
                && crossings
                    .iter()
                    .zip(c2)
                    .all(|(p, q)| p.0.to_bits() == q.0.to_bits() && p.1 == q.1)
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_are_seeded_and_span_the_catalog() {
        let a = generate(Mix::Mixed, 7, 256).unwrap();
        let b = generate(Mix::Mixed, 7, 256).unwrap();
        assert!(a.iter().zip(&b).all(|(x, y)| x.line == y.line));
        let platforms: std::collections::BTreeSet<&str> =
            a.iter().map(|t| t.req.platform.as_str()).collect();
        assert_eq!(platforms.len(), 12);
        assert!(a.iter().any(|t| t.req.double_precision));
        assert!(a
            .iter()
            .any(|t| matches!(t.req.query, Query::Crossover { .. })));
    }

    #[test]
    fn wire_fields_are_found() {
        let line = r#"{"id":3,"ok":true,"trace":"00ab","phases_us":{"queue":12,"window":0,"kernel":7,"serialize":1,"total":19},"result":{"kind":"sweep"}}"#;
        assert_eq!(result_field(line), Some(r#"{"kind":"sweep"}"#));
        assert_eq!(phase_us(line, "queue"), Some(12));
        assert_eq!(phase_us(line, "kernel"), Some(7));
        assert_eq!(result_field(r#"{"id":3,"ok":false,"error":{}}"#), None);
    }
}

//! Seeded input generators. Every input the benchmark feeds the verifier
//! comes from here, and every expected verdict is fixed by the template
//! or the mutation that produced the job — never by running the verifier.
//!
//! The same seed always yields byte-identical corpora, pools and arrival
//! schedules; the generators use their own SplitMix64 stream so that the
//! output does not depend on any other crate's random-number code.

use nqpv_linalg::{cr, CMat, CVec};

/// SplitMix64: tiny, fast and fully specified.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` so that the corpus,
    /// the pool and the schedule of one seed do not share draws.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// The answer a job must produce, fixed by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    Verified,
    Rejected,
    /// A parse or unknown-operator error; erroring is the correct outcome.
    Error,
}

impl Expect {
    /// The engine's / daemon's status label for this answer.
    pub fn label(self) -> &'static str {
        match self {
            Expect::Verified => "verified",
            Expect::Rejected => "rejected",
            Expect::Error => "error",
        }
    }
}

/// One generated `.nqpv` job.
#[derive(Debug, Clone, PartialEq)]
pub struct GenJob {
    pub name: String,
    pub source: String,
    pub expect: Expect,
}

/// A generated corpus: the jobs and the `.npy` operators (by file name)
/// their sources load.
#[derive(Debug, Clone, PartialEq)]
pub struct GenCorpus {
    pub jobs: Vec<GenJob>,
    pub npy: Vec<(String, CMat)>,
}

/// Distinct seeded QEC states per corpus, each one `.npy` file.
const PSI_STATES: usize = 16;

fn dpost() -> CMat {
    let k = |s| nqpv_quantum::ket(s).projector();
    k("00").add_mat(&k("11"))
}

const ONE_QUBIT: [&str; 4] = ["H", "X", "Y", "Z"];
const TWO_QUBIT: [&str; 4] = ["CX", "CZ", "SWAP", "C0X"];

fn qname(i: usize) -> String {
    format!("q{i}")
}

/// A random self-inverse gate on `n` qubits named by `names`.
fn random_gate(rng: &mut Rng, names: &[String]) -> String {
    let n = names.len();
    let pick = rng.below(10);
    if n >= 3 && pick == 0 {
        let a = rng.below(n);
        let b = (a + 1 + rng.below(n - 1)) % n;
        let mut c = rng.below(n);
        while c == a || c == b {
            c = rng.below(n);
        }
        format!("[{} {} {}] *= CCX", names[a], names[b], names[c])
    } else if n >= 2 && pick < 5 {
        let a = rng.below(n);
        let b = (a + 1 + rng.below(n - 1)) % n;
        let g = TWO_QUBIT[rng.below(TWO_QUBIT.len())];
        format!("[{} {}] *= {g}", names[a], names[b])
    } else {
        let g = ONE_QUBIT[rng.below(ONE_QUBIT.len())];
        format!("[{}] *= {g}", names[rng.below(n)])
    }
}

/// `G; G` for a random self-inverse `G`: the identity channel, wherever
/// it is placed.
fn identity_pair(rng: &mut Rng, names: &[String]) -> Vec<String> {
    let g = random_gate(rng, names);
    vec![g.clone(), g]
}

/// Inserts `pads` identity pairs at random top-level positions of
/// `items` (never in front of the first item, which initialises).
fn pad(rng: &mut Rng, items: &mut Vec<String>, names: &[String], pads: usize) {
    for _ in 0..pads {
        let at = 1 + rng.below(items.len());
        let pair = identity_pair(rng, names).join("; ");
        items.insert(at, pair);
    }
}

fn render(
    header: &str,
    loads: &[(&str, &str)],
    names: &[String],
    pre: &str,
    items: &[String],
    post: &str,
) -> String {
    let mut s = format!("// {header}\n");
    for (op, file) in loads {
        s.push_str(&format!("def {op} := load \"{file}\" end\n"));
    }
    s.push_str(&format!(
        "def pf := proof [{}] :\n  {{ {pre} }};\n",
        names.join(" ")
    ));
    for item in items {
        s.push_str(&format!("  {item};\n"));
    }
    s.push_str(&format!("  {{ {post} }}\nend\n"));
    s
}

/// Identity-equivalent random circuit `init; [if]; C; [( A # B )]; C⁻¹;
/// [loop]` with post `P0[q0]` and pre `I[q0]`: verified, or rejected when
/// `mutate` adds the demonic `( skip # [q0] *= X )` before the post.
/// Loops only appear unmutated — a loop in front of the flip would make
/// its invariant invalid (an error), not the proof rejected.
fn random_circuit(rng: &mut Rng, n: usize, stmts: usize, mutate: bool, loops: bool) -> Vec<String> {
    let names: Vec<String> = (0..n).map(qname).collect();
    let mut items = vec![format!("[{}] := 0", names.join(" "))];
    let mut budget = stmts.saturating_sub(1);
    // Right after initialisation every qubit is |0⟩, so measuring one in
    // the computational basis disturbs nothing.
    if rng.chance(0.5) {
        let k = rng.below(n);
        let a = identity_pair(rng, &names).join("; ");
        let b = if rng.chance(0.5) {
            "skip".to_string()
        } else {
            identity_pair(rng, &names).join("; ")
        };
        items.push(format!("if M01[{}] then {a} else {b} end", names[k]));
        budget = budget.saturating_sub(5);
    }
    let with_loop = loops && !mutate && n >= 2 && rng.chance(0.4);
    let tail = 2 * usize::from(with_loop) + 2 * usize::from(mutate);
    // Diagnosis of a rejection searches every demonic schedule and replays
    // each one forward, so mutated circuits keep the flip as their only
    // choice.
    let ndets = if mutate { 0 } else { rng.below(3) };
    let half = (budget.saturating_sub(tail + 5 * ndets) / 2).max(2);
    let circuit: Vec<String> = (0..half).map(|_| random_gate(rng, &names)).collect();
    let cut = rng.below(half + 1);
    items.extend(circuit[..cut].iter().cloned());
    for _ in 0..ndets {
        let a = identity_pair(rng, &names).join("; ");
        let b = identity_pair(rng, &names).join("; ");
        items.push(format!("( {a} # {b} )"));
    }
    items.extend(circuit[cut..].iter().cloned());
    items.extend(circuit.iter().rev().cloned());
    if with_loop {
        // Post P0[q0] commutes with the loop on q_k, so P0[q0] is a valid
        // partial-correctness invariant.
        let k = 1 + rng.below(n - 1);
        items.push(format!(
            "{{ inv : P0[q0] }}; while M01[{}] do [{}] *= H end",
            names[k], names[k]
        ));
    }
    if mutate {
        items.push("( skip # [q0] *= X )".into());
    }
    items
}

/// The projector onto a seeded real `α|0⟩ + β|1⟩` with `|α−β|` kept away
/// from 0, so that a bit flip always refutes its preservation.
fn psi_state(rng: &mut Rng) -> CMat {
    let t = loop {
        let t = 0.1 + 1.3 * rng.unit();
        if (t - std::f64::consts::FRAC_PI_4).abs() > 0.27 {
            break t;
        }
    };
    CVec::new(vec![cr(t.cos()), cr(t.sin())]).projector()
}

/// Three-qubit bit-flip QEC (paper Sec. 5.1), padded with identity pairs.
/// Mutation flips `q` before the post.
fn qec(rng: &mut Rng, stmts: usize, mutate: bool) -> Vec<String> {
    let names: Vec<String> = ["q", "q1", "q2"].iter().map(|s| s.to_string()).collect();
    let mut items: Vec<String> = [
        "[q1 q2] := 0",
        "[q q1] *= CX",
        "[q q2] *= CX",
        "( skip # [q] *= X # [q1] *= X # [q2] *= X )",
        "[q q2] *= CX",
        "[q q1] *= CX",
        "if M01[q2] then if M01[q1] then [q] *= X end end",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    pad(rng, &mut items, &names, stmts.saturating_sub(9) / 2);
    if mutate {
        items.push("( skip # [q] *= X )".into());
    }
    items
}

/// The Deutsch algorithm with a nondeterministic oracle (Sec. 5.2).
fn deutsch(rng: &mut Rng, stmts: usize, mutate: bool) -> Vec<String> {
    let names: Vec<String> = ["q", "q1", "q2"].iter().map(|s| s.to_string()).collect();
    let mut items: Vec<String> = [
        "[q1 q2] := 0",
        "[q1] *= H",
        "[q2] *= X",
        "[q2] *= H",
        "if M01[q] then ( [q1 q2] *= CX # [q1 q2] *= C0X ) else ( skip # [q2] *= X ) end",
        "[q1] *= H",
        "if M01[q1] then skip else skip end",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    pad(rng, &mut items, &names, stmts.saturating_sub(12) / 2);
    if mutate {
        items.push("( skip # [q1] *= X )".into());
    }
    items
}

/// The nondeterministic quantum walk (Sec. 5.3), padded in front of the
/// loop.
fn qwalk(rng: &mut Rng, stmts: usize) -> Vec<String> {
    let names: Vec<String> = ["q1", "q2"].iter().map(|s| s.to_string()).collect();
    let mut items = vec!["[q1 q2] := 0".to_string()];
    pad(rng, &mut items, &names, stmts.saturating_sub(7) / 2);
    items.push(
        "{ inv : invN[q1 q2] }; while MQWalk[q1 q2] do \
         ( [q1 q2] *= W1; [q1 q2] *= W2 # [q1 q2] *= W2; [q1 q2] *= W1 ) end"
            .into(),
    );
    items
}

/// Repeat-until-success with a spectator qubit, padded in front of the
/// loop.
fn rus(rng: &mut Rng, stmts: usize) -> Vec<String> {
    let names: Vec<String> = ["q", "r"].iter().map(|s| s.to_string()).collect();
    let mut items = vec!["[q r] := 0".to_string(), "[q] *= H".to_string()];
    pad(rng, &mut items, &names, stmts.saturating_sub(5) / 2);
    items.push("{ inv : I[q] }; while M01[q] do [q] *= H end".into());
    items
}

/// Turns a well-formed job into a parse error (a gate with no name) or an
/// unknown-operator error.
fn break_source(rng: &mut Rng, source: &str) -> String {
    let Some(at) = source.find(" *= ") else {
        return source.replace("proof", "proof proof");
    };
    let end = at + 4 + source[at + 4..].find(';').unwrap_or(0);
    let replacement = if rng.chance(0.5) { "" } else { "Missing7" };
    format!("{}{}{}", &source[..at + 4], replacement, &source[end..])
}

/// Fisher–Yates shuffle.
fn shuffle<T>(rng: &mut Rng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
}

/// A corpus of `n_jobs` distinct jobs: 2–6 qubits, 10–80 statements, from
/// the case-study templates and identity-equivalent random circuits.
/// The mix is stratified, so every seed gets the same proportions in a
/// different order: 9/20 random circuits, 3/20 each QEC, Deutsch and
/// QWalk, 2/20 RUS; a third of the loop-free ones (a quarter of all) are
/// mutated into known rejections, and 1 in 50 is broken into a parse or
/// unknown-operator error. Sources load their operators from `npy_dir`;
/// QEC jobs share [`PSI_STATES`] seeded states.
pub fn corpus(seed: u64, n_jobs: usize, npy_dir: &str) -> GenCorpus {
    let mut rng = Rng::new(seed, 1);
    let mut npy: Vec<(String, CMat)> = vec![
        ("dpost.npy".into(), dpost()),
        ("invN.npy".into(), nqpv_core::casestudies::qwalk_invariant()),
    ];
    npy.extend((0..PSI_STATES).map(|k| (format!("psi{k:02}.npy"), psi_state(&mut rng))));
    let path = |file: &str| format!("{npy_dir}/{file}");
    // (template, mutate): template < 15 is loop-free, so it may mutate.
    let mut kinds: Vec<(usize, bool)> = (0..n_jobs)
        .map(|i| (i % 20, i % 20 < 15 && (i / 20) % 3 == 0))
        .collect();
    shuffle(&mut rng, &mut kinds);
    let mut broken: Vec<bool> = (0..n_jobs).map(|i| i % 50 == 0).collect();
    shuffle(&mut rng, &mut broken);
    let jobs = (0..n_jobs)
        .map(|i| {
            let name = format!("job{i:05}");
            let stmts = rng.range(10, 80);
            let (template, mutate) = kinds[i];
            let expect = if mutate {
                Expect::Rejected
            } else {
                Expect::Verified
            };
            let (header, loads, names, pre, items, post) = match template {
                0..=8 => {
                    let n = if mutate {
                        rng.range(2, 4)
                    } else {
                        rng.range(2, 6)
                    };
                    let names: Vec<String> = (0..n).map(qname).collect();
                    let items = random_circuit(&mut rng, n, stmts, mutate, true);
                    ("random circuit", vec![], names, "I[q0]", items, "P0[q0]")
                }
                9..=11 => {
                    let psi = path(&format!("psi{:02}.npy", rng.below(PSI_STATES)));
                    let items = qec(&mut rng, stmts, mutate);
                    let names = vec!["q".into(), "q1".into(), "q2".into()];
                    let loads = vec![("Psi", psi)];
                    ("bit-flip QEC", loads, names, "Psi[q]", items, "Psi[q]")
                }
                12..=14 => {
                    let items = deutsch(&mut rng, stmts, mutate);
                    let names = vec!["q".into(), "q1".into(), "q2".into()];
                    let loads = vec![("DPost", path("dpost.npy"))];
                    ("Deutsch", loads, names, "I[q]", items, "DPost[q q1]")
                }
                15..=17 => {
                    let items = qwalk(&mut rng, stmts);
                    let names = vec!["q1".into(), "q2".into()];
                    let loads = vec![("invN", path("invN.npy"))];
                    ("QWalk", loads, names, "I[q1]", items, "Zero[q1]")
                }
                _ => {
                    let items = rus(&mut rng, stmts);
                    let names = vec!["q".into(), "r".into()];
                    ("RUS", vec![], names, "I[q]", items, "P0[q]")
                }
            };
            let loads: Vec<(&str, &str)> = loads.iter().map(|(o, f)| (*o, f.as_str())).collect();
            let source = render(
                &format!("{name}: {header}"),
                &loads,
                &names,
                pre,
                &items,
                post,
            );
            let (source, expect) = if broken[i] {
                (break_source(&mut rng, &source), Expect::Error)
            } else {
                (source, expect)
            };
            GenJob {
                name,
                source,
                expect,
            }
        })
        .collect();
    GenCorpus { jobs, npy }
}

/// The daemon pool: `size` small builtin-only programs (2–3 qubits, 10–20
/// statements; a quarter rejected), submitted inline.
pub fn pool(seed: u64, size: usize) -> Vec<GenJob> {
    let mut rng = Rng::new(seed, 2);
    (0..size)
        .map(|i| {
            let name = format!("pool{i:02}");
            let n = rng.range(2, 3);
            let mutate = i % 4 == 3;
            let names: Vec<String> = (0..n).map(qname).collect();
            let stmts = rng.range(10, 20);
            let items = random_circuit(&mut rng, n, stmts, mutate, true);
            let source = render(&name, &[], &names, "I[q0]", &items, "P0[q0]");
            GenJob {
                name,
                source,
                expect: if mutate {
                    Expect::Rejected
                } else {
                    Expect::Verified
                },
            }
        })
        .collect()
}

/// An open-loop Poisson arrival schedule: `n` send offsets in seconds at
/// `rate` jobs/s, each paired with the pool index it submits.
pub fn arrivals(seed: u64, rate: f64, n: usize, pool_size: usize) -> Vec<(f64, usize)> {
    let mut rng = Rng::new(seed, 3);
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += -(1.0 - rng.unit()).ln() / rate;
            (t, rng.below(pool_size))
        })
        .collect()
}

/// The Grover marked basis state for `seed`.
pub fn grover_marked(seed: u64, n_qubits: usize) -> usize {
    Rng::new(seed, 4).below(1 << n_qubits)
}

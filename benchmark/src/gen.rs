//! Seeded input generation. Every request line and `.vpd` document a
//! workload sends is a pure function of the workload seed
//! (and, for open-ended streams, the request index), so the program
//! receives only generated inputs and one seed always yields the same
//! bytes.
//!
//! Only inputs the cold oracle answers with `ok` are generated: the
//! menus below leave out, for example, `analyze` of A1/A2 with the
//! `3lhd` topology, whose 48 modules x 12 A cannot carry the load.

use std::collections::BTreeMap;

/// SplitMix64: small, fast, and fully specified, so inputs do not
/// depend on any library's generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for item `index` of stream `stream` under `seed`.
    pub fn for_item(seed: u64, stream: u64, index: u64) -> Self {
        let mut r = Self(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        r.0 ^= r.next_u64() ^ index.wrapping_mul(0xe703_7ed1_a0b4_28db);
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`, rounded to `digits` decimals so the
    /// document and wire spellings stay short.
    pub fn range(&mut self, lo: f64, hi: f64, digits: i32) -> f64 {
        let scale = 10f64.powi(digits);
        ((lo + (hi - lo) * self.unit()) * scale).round() / scale
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    /// Index drawn with the given integer weights.
    pub fn weighted(&mut self, weights: &[u32]) -> usize {
        let total: u32 = weights.iter().sum();
        let mut x = (self.next_u64() % u64::from(total)) as u32;
        for (i, &w) in weights.iter().enumerate() {
            if x < w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }
}

/// One generated request: the NDJSON body that follows the `id` field,
/// plus the `.vpd` text it carries (inline, or the builtin it names).
#[derive(Clone, Debug, PartialEq)]
pub struct Input {
    pub kind: &'static str,
    pub body: String,
    pub doc: Option<String>,
    /// Mesh resolution of the carried document.
    pub grid: Option<usize>,
}

impl Input {
    fn new(kind: &'static str, params: &str) -> Self {
        Self {
            kind,
            body: format!("\"kind\":\"{kind}\",\"params\":{{{params}}}}}"),
            doc: None,
            grid: None,
        }
    }

    /// The full request line with its correlation id.
    pub fn line(&self, id: u64) -> String {
        format!("{{\"id\":{id},{}", self.body)
    }
}

/// JSON string literal for `s`.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Architecture wire tags.
pub const ARCHS: [&str; 5] = ["a0", "a1", "a2", "a3-12", "a3-6"];

/// Topologies every architecture can carry at up to 1 kW; `3lhd`
/// only on A0 and A3, where module capacity suffices.
fn topologies(arch: &str) -> &'static [&'static str] {
    match arch {
        "a1" | "a2" => &["dsch", "dpmih"],
        _ => &["dsch", "dpmih", "3lhd"],
    }
}

// ---------------------------------------------------------------- serve-warm

/// The serve-warm working set: distinct request lines grouped by kind,
/// over 16 distinct cache keys. The served cache holds 32 entries in
/// two per-worker shards of 16; 16 keys fit in one shard, so steals
/// between shards never evict and every warm request can hit.
#[derive(Clone, Debug, PartialEq)]
pub struct WarmSet {
    pub lines: Vec<Input>,
    /// Per kind group: (draw weight, indices into `lines`).
    pub groups: Vec<(u32, Vec<usize>)>,
}

/// Respells a `.vpd` document without changing its meaning: a leading
/// comment, keys within each section in reverse order, and integer
/// values written as decimals. The canonical rendering (and so the
/// cache key) is unchanged.
pub fn respell(doc: &str) -> String {
    let mut out = String::from("# respelled copy: same scenario, different bytes\n");
    let mut section: Vec<String> = Vec::new();
    let flush = |out: &mut String, section: &mut Vec<String>| {
        for line in section.drain(..).rev() {
            out.push_str(&line);
            out.push('\n');
        }
    };
    for line in doc.lines() {
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        if t.starts_with('[') {
            flush(&mut out, &mut section);
            out.push_str(t);
            out.push('\n');
            continue;
        }
        // Count-valued keys must stay integers; every other integer is
        // a float field and may be written with a decimal point.
        let respelled = match t.split_once(" = ") {
            Some((k, v))
                if !matches!(
                    k,
                    "grid_nodes_per_side" | "modules" | "k" | "count" | "seed"
                ) && !v.is_empty()
                    && v.bytes().all(|b| b.is_ascii_digit()) =>
            {
                format!("{k} = {v}.0")
            }
            _ => t.to_string(),
        };
        section.push(respelled);
    }
    flush(&mut out, &mut section);
    out
}

pub fn warm_set(seed: u64) -> WarmSet {
    let mut rng = Rng::for_item(seed, 1, 0);
    let mut lines = Vec::new();
    let mut groups = Vec::new();
    let mut group = |weight: u32, new: Vec<Input>, lines: &mut Vec<Input>| {
        let start = lines.len();
        lines.extend(new);
        groups.push((weight, (start..lines.len()).collect::<Vec<_>>()));
    };
    // The keys are the same for every seed, so every seed asks for the
    // same work; the seed varies the request order and the setpoints.

    // analyze: 4 keys of (arch, power, density); the topology is not
    // part of the key, so each key gets two topology spellings.
    let mut analyze = Vec::new();
    for (arch, power, density) in [
        ("a0", 1000, 2.0),
        ("a1", 800, 2.0),
        ("a2", 1000, 2.0),
        ("a3-12", 600, 1.5),
    ] {
        for topo in &topologies(arch)[..2] {
            analyze.push(Input::new(
                "analyze",
                &format!(
                    "\"arch\":\"{arch}\",\"topology\":\"{topo}\",\"power_w\":{power},\"density\":{density}"
                ),
            ));
        }
    }
    group(25, analyze, &mut lines);

    // sharing and sharing_sweep: 2 keys each of (placement, modules).
    let sharing = [("periphery", 48), ("below", 24)]
        .iter()
        .map(|(placement, modules)| {
            Input::new(
                "sharing",
                &format!("\"placement\":\"{placement}\",\"modules\":{modules}"),
            )
        })
        .collect();
    group(10, sharing, &mut lines);
    let mut sweeps = Vec::new();
    for (placement, modules) in [("periphery", 24), ("below", 48)] {
        for _ in 0..3 {
            let setpoints: Vec<String> = (0..3)
                .map(|_| rng.range(0.97, 1.03, 4).to_string())
                .collect();
            sweeps.push(Input::new(
                "sharing_sweep",
                &format!(
                    "\"placement\":\"{placement}\",\"modules\":{modules},\"setpoints\":[{}]",
                    setpoints.join(",")
                ),
            ));
        }
    }
    group(15, sweeps, &mut lines);

    // droop and 16-point impedance: 2 architectures each.
    let droop = ["a0", "a2"]
        .iter()
        .map(|a| Input::new("droop", &format!("\"arch\":\"{a}\"")))
        .collect();
    group(10, droop, &mut lines);
    let impedance = ["a1", "a3-6"]
        .iter()
        .map(|a| Input::new("impedance", &format!("\"arch\":\"{a}\",\"points\":16")))
        .collect();
    group(15, impedance, &mut lines);

    // scenario: 4 builtins, each asked by name and as a respelled
    // inline copy that shares its cache key.
    let mut scenario = Vec::new();
    for name in ["a0", "a1", "a2", "a3-12"] {
        let text = vpd_scenario::builtin_doc(name)
            .expect("builtin name")
            .to_string();
        let mut by_name = Input::new("scenario", &format!("\"name\":\"{name}\""));
        by_name.doc = Some(text.clone());
        let inline_text = respell(&text);
        let mut inline = Input::new("scenario", &format!("\"doc\":{}", json_str(&inline_text)));
        inline.doc = Some(inline_text);
        scenario.push(by_name);
        scenario.push(inline);
    }
    group(25, scenario, &mut lines);
    WarmSet { lines, groups }
}

impl WarmSet {
    /// The line index request `i` of stream `stream` sends.
    pub fn request(&self, seed: u64, stream: u64, i: u64) -> usize {
        let mut rng = Rng::for_item(seed, 100 + stream, i);
        let weights: Vec<u32> = self.groups.iter().map(|g| g.0).collect();
        let group = &self.groups[rng.weighted(&weights)].1;
        *rng.pick(group)
    }
}

// ---------------------------------------------------------------- serve-cold

/// `grid_nodes_per_side` histogram for cold documents: (nodes, weight).
/// Cold compile and solve cost grows steeply with the mesh (about 1.6
/// ms at 16 to 18 ms at 48 on a 2-vCPU host), so small meshes dominate
/// and the large ones form the tail.
pub const COLD_GRIDS: [(usize, u32); 7] = [
    (16, 35),
    (20, 20),
    (24, 15),
    (28, 10),
    (32, 10),
    (40, 6),
    (48, 4),
];

/// Shares (percent) of cold documents carrying optional sections.
pub const COLD_CONVERTER_PCT: usize = 25;
pub const COLD_TECH_PCT: usize = 15;
/// `[faults]` rides only on meshes of at most [`COLD_FAULTS_MAX_GRID`]
/// nodes per side, where an N-1 or random-k sweep stays within a few
/// times the document's own cost.
pub const COLD_FAULTS_PCT: u32 = 10;
pub const COLD_FAULTS_MAX_GRID: usize = 20;

/// Point `i` of a golden-ratio sequence in [0, 1): spread evenly, so
/// every few hundred documents hold the stated shares almost exactly
/// and no seed draws an unusually heavy or light stretch.
fn even(i: u64, offset: f64, step: f64) -> f64 {
    (offset + i as f64 * step).fract()
}

/// A unique inline `.vpd` document: item `i` of stream `stream`. Its
/// mesh size and `[faults]` section follow even sequences over the
/// index; every other value is drawn from the seed.
pub fn cold_doc(seed: u64, stream: u64, i: u64) -> Input {
    let mut rng = Rng::for_item(seed, 200 + stream, i);
    let start = Rng::for_item(seed, 300 + stream, 0).unit();
    let total: u32 = COLD_GRIDS.iter().map(|g| g.1).sum();
    let mut at = even(i, start, 0.618_033_988_749_895) * f64::from(total);
    let mut grid = COLD_GRIDS[COLD_GRIDS.len() - 1].0;
    for &(g, w) in &COLD_GRIDS {
        if at < f64::from(w) {
            grid = g;
            break;
        }
        at -= f64::from(w);
    }
    let small: u32 = COLD_GRIDS
        .iter()
        .filter(|g| g.0 <= COLD_FAULTS_MAX_GRID)
        .map(|g| g.1)
        .sum();
    let faults = grid <= COLD_FAULTS_MAX_GRID
        && even(i, start, 0.414_213_562_373_095) * f64::from(small)
            < f64::from(COLD_FAULTS_PCT * total) / 100.0;
    doc_input(&mut rng, &format!("cold-{seed}-{stream}-{i}"), grid, faults)
}

/// Warm-up document `i` of serve-cold set-up `setup`: a fixed 24-node
/// mesh without `[faults]`, so every set-up does the same work.
pub fn warmup_doc(seed: u64, setup: u64, i: u64) -> Input {
    let mut rng = Rng::for_item(seed, 500 + setup, i);
    doc_input(&mut rng, &format!("warmup-{seed}-{setup}-{i}"), 24, false)
}

fn doc_input(rng: &mut Rng, name: &str, grid: usize, faults: bool) -> Input {
    let mut d = String::new();
    let arch = match rng.below(6) {
        5 => "a3",
        k => ARCHS[k],
    };
    d.push_str(&format!("[scenario]\nname = \"{name}\"\n"));
    d.push_str(&format!("architecture = \"{arch}\"\n"));
    if arch == "a3" {
        d.push_str(&format!("bus_v = {}\n", rng.pick(&[6, 8, 10, 12])));
    }
    d.push_str(&format!("topology = \"{}\"\n", rng.pick(topologies(arch))));
    if rng.below(5) == 0 {
        let flipped = if arch == "a2" { "periphery" } else { "below" };
        d.push_str(&format!("placement = \"{flipped}\"\n"));
    }
    d.push_str(&format!(
        "[spec]\npower_w = {}\ndensity_a_mm2 = {}\n",
        rng.range(600.0, 1000.0, 1),
        rng.range(1.5, 2.5, 3)
    ));
    d.push_str(&format!(
        "[calibration]\nhorizontal_pol_uohm = {}\ngrid_sheet_mohm = {}\n\
         vr_droop_periphery_mohm = {}\nvr_droop_below_die_uohm = {}\ngrid_nodes_per_side = {grid}\n",
        rng.range(250.0, 310.0, 2),
        rng.range(0.25, 0.35, 5),
        rng.range(1.0, 1.4, 4),
        rng.range(50.0, 70.0, 3),
    ));
    match rng.below(3) {
        0 => d.push_str("[load]\nmap = \"uniform\"\n"),
        1 => d.push_str(&format!(
            "[load]\nmap = \"split\"\nleft_share = {}\n",
            rng.range(0.3, 0.7, 3)
        )),
        _ => d.push_str(&format!(
            "[load]\nmap = \"gaussian\"\ncx = {}\ncy = {}\nsigma = {}\nfloor = {}\n",
            rng.range(0.3, 0.7, 3),
            rng.range(0.3, 0.7, 3),
            rng.range(0.06, 0.15, 3),
            rng.range(0.2, 0.5, 3)
        )),
    }
    // Anchor ranges keep the fitted quadratic loss's linear term
    // positive: l_p (I_max - I_peak)^2 >= 2 I_peak I_max (l_max - l_p)
    // with l = 1/eta - 1 holds at every corner.
    if rng.below(100) < COLD_CONVERTER_PCT {
        d.push_str(&format!(
            "[converter]\nv_out = 1\ni_peak = {}\neta_peak = {}\ni_max = {}\neta_max = {}\n",
            rng.range(28.0, 32.0, 2),
            rng.range(0.896, 0.904, 4),
            rng.range(96.0, 104.0, 2),
            rng.range(0.856, 0.864, 4)
        ));
    }
    if rng.below(100) < COLD_TECH_PCT {
        if rng.below(2) == 0 {
            d.push_str(&format!(
                "[tech.tsv]\npitch_um = {}\n",
                rng.range(30.0, 60.0, 2)
            ));
        } else {
            d.push_str(&format!(
                "[tech.micro-bump]\npitch_um = {}\npower_site_cap = {}\n",
                rng.range(50.0, 80.0, 2),
                rng.range(0.5, 1.0, 3)
            ));
        }
    }
    if faults {
        if grid == 16 && rng.below(2) == 0 {
            d.push_str("[faults]\nmode = \"n-1\"\n");
        } else {
            d.push_str(&format!(
                "[faults]\nmode = \"random-k\"\nk = {}\ncount = 6\nseed = {}\n",
                1 + rng.below(2),
                rng.below(100_000)
            ));
        }
    }
    let mut input = Input::new("scenario", &format!("\"doc\":{}", json_str(&d)));
    input.doc = Some(d);
    input.grid = Some(grid);
    input
}

// ------------------------------------------------------------------ sweep-a2

/// One pass of the A2 design-space campaign, sent one request at a
/// time. Sizes are fixed so every seed asks for the same work; the seed
/// picks the fault draws, the Monte-Carlo streams and the setpoints.
///
/// A pass holds 15 requests: nearest-rank p50 and p90 then fall at
/// ranks 7.5 and 13.5 of 15, in the middle of one request's times
/// (today a `transient_stream` and the faster N-1 sweep)
/// rather than on the boundary between two kinds.
pub fn campaign(seed: u64) -> Vec<Input> {
    let mut rng = Rng::for_item(seed, 3, 0);
    let setpoints: Vec<String> = (0..96)
        .map(|_| rng.range(0.95, 1.05, 4).to_string())
        .collect();
    let mut pass = Vec::new();
    for topo in ["dsch", "dpmih"] {
        pass.push(Input::new(
            "faults",
            &format!("\"arch\":\"a2\",\"topology\":\"{topo}\""),
        ));
    }
    for _ in 0..2 {
        pass.push(Input::new(
            "faults",
            &format!(
                "\"arch\":\"a2\",\"topology\":\"dsch\",\"random_k\":3,\"count\":24,\"seed\":{}",
                rng.below(1_000_000)
            ),
        ));
        pass.push(Input::new(
            "mc",
            &format!(
                "\"arch\":\"a2\",\"samples\":24,\"seed\":{}",
                rng.below(1_000_000)
            ),
        ));
        pass.push(Input::new(
            "fault_impedance",
            &format!(
                "\"arch\":\"a2\",\"random_k\":2,\"count\":12,\"seed\":{},\"points\":32",
                rng.below(1_000_000)
            ),
        ));
    }
    pass.push(Input::new(
        "sharing_sweep",
        &format!(
            "\"placement\":\"below\",\"modules\":48,\"setpoints\":[{}]",
            setpoints.join(",")
        ),
    ));
    for points in [120, 160] {
        pass.push(Input::new(
            "impedance",
            &format!("\"arch\":\"a2\",\"points\":{points},\"profile\":true"),
        ));
    }
    for chunk in [512, 1024] {
        pass.push(Input::new(
            "transient_stream",
            &format!("\"arch\":\"a2\",\"chunk\":{chunk}"),
        ));
    }
    pass.push(Input::new("fault_transient", "\"arch\":\"a2\",\"count\":4"));
    pass.push(Input::new("droop", "\"arch\":\"a2\""));
    pass
}

/// Histogram of carried-document mesh sizes.
pub fn grid_histogram<'a>(inputs: impl Iterator<Item = &'a Input>) -> BTreeMap<usize, usize> {
    let mut h = BTreeMap::new();
    for i in inputs {
        if let Some(g) = i.grid {
            *h.entry(g).or_default() += 1;
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_byte_identical_inputs() {
        for seed in [1, 7, 123_456] {
            assert_eq!(warm_set(seed), warm_set(seed));
            let w = warm_set(seed);
            let a: Vec<usize> = (0..500).map(|i| w.request(seed, 0, i)).collect();
            let b: Vec<usize> = (0..500).map(|i| w.request(seed, 0, i)).collect();
            assert_eq!(a, b);
            for i in 0..50 {
                assert_eq!(cold_doc(seed, 0, i), cold_doc(seed, 0, i));
            }
            assert_eq!(campaign(seed), campaign(seed));
        }
        assert_ne!(campaign(1), campaign(2));
        assert_ne!(cold_doc(1, 0, 0), cold_doc(2, 0, 0));
    }

    #[test]
    fn warm_set_spans_exactly_the_stated_keys() {
        use vpd_serve::{Request, ScenarioKey};
        for seed in 0..20 {
            let w = warm_set(seed);
            let mut keys: Vec<ScenarioKey> = w
                .lines
                .iter()
                .map(|l| {
                    let req = Request::parse_line(&l.line(0)).expect("generated lines parse");
                    ScenarioKey::from_work(&req.work).expect("every kind is cached")
                })
                .collect();
            keys.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
            keys.dedup();
            assert_eq!(keys.len(), 16, "seed {seed}");
        }
    }

    #[test]
    fn respelled_builtins_keep_their_content_hash() {
        for (name, text) in vpd_scenario::builtin_docs() {
            let original = vpd_scenario::ScenarioDoc::parse(text).unwrap();
            let respelled = vpd_scenario::ScenarioDoc::parse(&respell(text)).unwrap();
            assert_ne!(respell(text), text, "{name}");
            assert_eq!(original.content_hash(), respelled.content_hash(), "{name}");
        }
    }

    #[test]
    fn cold_documents_are_unique_and_parse() {
        let mut hashes = std::collections::BTreeSet::new();
        for i in 0..300 {
            let input = cold_doc(9, 0, i);
            let doc = vpd_scenario::ScenarioDoc::parse(input.doc.as_deref().unwrap())
                .unwrap_or_else(|e| panic!("doc {i}: {e}"));
            assert!(hashes.insert(doc.content_hash()));
            assert!(vpd_serve::Request::parse_line(&input.line(i)).is_ok());
        }
    }

    #[test]
    fn the_cold_oracle_answers_every_generated_input() {
        let cold = vpd_serve::Dispatcher::new(0);
        for seed in [1, 2, 3] {
            let w = warm_set(seed);
            let cold_docs = (0..40).map(|i| cold_doc(seed, 0, i));
            for input in w
                .lines
                .iter()
                .cloned()
                .chain(campaign(seed))
                .chain(cold_docs)
            {
                if let Err(e) = crate::oracle::expected_for(&cold, &input) {
                    panic!("seed {seed}: {e}\n{}", input.body);
                }
            }
        }
    }

    #[test]
    fn weighted_draws_follow_weights() {
        let mut rng = Rng::for_item(5, 0, 0);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[rng.weighted(&[1, 2, 7])] += 1;
        }
        assert!((2_500..3_500).contains(&counts[0]), "{counts:?}");
        assert!((20_000..22_000).contains(&counts[2]), "{counts:?}");
    }
}

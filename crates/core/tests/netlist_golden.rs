//! Golden byte-identity test for the generation stage: for fixed design
//! points covering all eight precisions (each precision's `Wstore` = 64K
//! knee geometry plus a small odd-shaped point), the emitted Verilog, the
//! DEF, the gate audit and the hierarchy report are pinned by length and
//! FNV-1a digest. Any change to the netlist IR, the generators or the
//! emitters that moves a single output byte fails here.
//!
//! The Verilog is pinned twice. `verilog` pins the design with every
//! generate loop expanded (`Design::flattened`): one instance line per
//! column and fusion unit, so it proves the loops hold exactly the flat
//! netlist. `verilog_arrays` pins what `sega-dcim compile` writes, with the
//! loops emitted as `generate for` blocks.

use sega_dcim::estimator::{DcimDesign, Precision};
use sega_dcim::netlist::hierarchy::hierarchy_report;
use sega_dcim::netlist::verilog;
use sega_dcim::Compiler;

/// 64-bit FNV-1a over bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(length, digest)` of an artifact.
type Pin = (usize, u64);

fn pin(text: &str) -> Pin {
    (text.len(), fnv1a(text.as_bytes()))
}

struct Golden {
    precision: Precision,
    /// `(n, h, l, k)`.
    geometry: (u32, u32, u32, u32),
    /// Emission of the flattened design.
    verilog: Pin,
    /// Emission with generate loops.
    verilog_arrays: Pin,
    def: Pin,
    hierarchy: Pin,
    /// Audit counts, sorted by cell.
    counts: &'static [(&'static str, u64)],
}

/// Recorded by [`print_golden_record`].
#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    Golden {
        precision: Precision::Int2,
        geometry: (16384, 2, 4, 2),
        verilog: (2369721, 9500132975141176607),
        verilog_arrays: (5875, 1631115823259141821),
        def: (308, 4364128635938239241),
        hierarchy: (1065, 11052754638376253546),
        counts: &[("DFF", 49156), ("FA", 81920), ("HA", 40960), ("MUX2", 196608), ("NOR", 65536), ("SRAM", 131072)],
    },
    Golden {
        precision: Precision::Int2,
        geometry: (4, 5, 3, 1),
        verilog: (8948, 18037646804857142340),
        verilog_arrays: (8882, 15230155067546383694),
        def: (292, 7461436734909812470),
        hierarchy: (1278, 15497355980958203825),
        counts: &[("DFF", 30), ("FA", 40), ("HA", 22), ("MUX2", 125), ("NOR", 20), ("SRAM", 60)],
    },
    Golden {
        precision: Precision::Int4,
        geometry: (8192, 16, 2, 4),
        verilog: (1061033, 3806892282363612861),
        verilog_arrays: (18404, 1771475339819135164),
        def: (312, 1630654820744694386),
        hierarchy: (1278, 13212071566140770444),
        counts: &[("DFF", 65600), ("FA", 583680), ("HA", 137216), ("MUX2", 589824), ("NOR", 524288), ("SRAM", 262144)],
    },
    Golden {
        precision: Precision::Int4,
        geometry: (8, 5, 3, 3),
        verilog: (13092, 9344907347906178009),
        verilog_arrays: (12624, 10627928862228339466),
        def: (294, 6767356628006255748),
        hierarchy: (1278, 14104609084022189590),
        counts: &[("DFF", 76), ("FA", 196), ("HA", 46), ("MUX2", 431), ("NOR", 120), ("SRAM", 120)],
    },
    Golden {
        precision: Precision::Int8,
        geometry: (8192, 64, 1, 8),
        verilog: (1044885, 1816005933353141772),
        verilog_arrays: (72120, 14423936386475865508),
        def: (316, 604046584889622938),
        hierarchy: (1349, 13023408166106700674),
        counts: &[("DFF", 115200), ("FA", 4336640), ("HA", 531456), ("MUX2", 1490944), ("NOR", 4194304), ("SRAM", 524288)],
    },
    Golden {
        precision: Precision::Int8,
        geometry: (16, 7, 3, 3),
        verilog: (21090, 108457287259917794),
        verilog_arrays: (19803, 1338733640205454744),
        def: (295, 3185806645752942121),
        hierarchy: (1207, 12814324517635479339),
        counts: &[("DFF", 232), ("FA", 668), ("HA", 126), ("MUX2", 2026), ("NOR", 336), ("SRAM", 336)],
    },
    Golden {
        precision: Precision::Int16,
        geometry: (16384, 64, 1, 16),
        verilog: (2067639, 14493944128295706810),
        verilog_arrays: (128629, 2991945686081114012),
        def: (318, 5096748937689888619),
        hierarchy: (1355, 8468510706868617749),
        counts: &[("DFF", 361472), ("FA", 17329152), ("HA", 1063936), ("MUX2", 7569408), ("NOR", 16777216), ("SRAM", 1048576)],
    },
    Golden {
        precision: Precision::Int16,
        geometry: (32, 5, 3, 5),
        verilog: (35397, 12947465453361047870),
        verilog_arrays: (32421, 15243875301472495304),
        def: (301, 6965843397418040799),
        hierarchy: (1278, 856130229240965369),
        counts: &[("DFF", 688), ("FA", 2204), ("HA", 190), ("MUX2", 11339), ("NOR", 800), ("SRAM", 480)],
    },
    Golden {
        precision: Precision::Fp8,
        geometry: (8192, 32, 1, 4),
        verilog: (1306237, 17230946699581174289),
        verilog_arrays: (42058, 920944840008657271),
        def: (361, 5186094143436147366),
        hierarchy: (1704, 13957327015287312194),
        counts: &[("DFF", 73856), ("FA", 1122493), ("HA", 270399), ("MUX2", 909696), ("NOR", 1048576), ("OR", 26624), ("SRAM", 262144)],
    },
    Golden {
        precision: Precision::Fp8,
        geometry: (8, 5, 3, 3),
        verilog: (20805, 4013030981070159429),
        verilog_arrays: (20288, 17458540673269151875),
        def: (337, 7826595203003238397),
        hierarchy: (1704, 14806177184253398939),
        counts: &[("DFF", 76), ("FA", 231), ("HA", 57), ("MUX2", 711), ("NOR", 120), ("OR", 22), ("SRAM", 120)],
    },
    Golden {
        precision: Precision::Fp16,
        geometry: (11264, 64, 1, 11),
        verilog: (1594008, 14121510687232885117),
        verilog_arrays: (138035, 737776297986792966),
        def: (363, 12350031811080216438),
        hierarchy: (1919, 13521301969670516124),
        counts: &[("DFF", 192192), ("FA", 8200700), ("HA", 732287), ("MUX2", 3844992), ("NOR", 7929856), ("OR", 28672), ("SRAM", 720896)],
    },
    Golden {
        precision: Precision::Fp16,
        geometry: (22, 5, 3, 3),
        verilog: (50950, 12569101697784045128),
        verilog_arrays: (48969, 9767093583735800415),
        def: (340, 2125426747991859789),
        hierarchy: (1775, 10356554525046037929),
        counts: &[("DFF", 363), ("FA", 1054), ("HA", 141), ("MUX2", 6019), ("NOR", 330), ("OR", 50), ("SRAM", 330)],
    },
    Golden {
        precision: Precision::Bf16,
        geometry: (8192, 64, 1, 8),
        verilog: (1187778, 1194461892084380833),
        verilog_arrays: (105807, 17548924236067041570),
        def: (361, 16307314134711750653),
        hierarchy: (1775, 3189440607696910542),
        counts: &[("DFF", 115200), ("FA", 4345721), ("HA", 532607), ("MUX2", 1967616), ("NOR", 4194304), ("OR", 22528), ("SRAM", 524288)],
    },
    Golden {
        precision: Precision::Bf16,
        geometry: (16, 7, 3, 3),
        verilog: (39615, 5897865482342532391),
        verilog_arrays: (38280, 5597362124492117725),
        def: (340, 864978000899216618),
        hierarchy: (1775, 10493922388695464495),
        counts: &[("DFF", 232), ("FA", 775), ("HA", 141), ("MUX2", 3102), ("NOR", 336), ("OR", 38), ("SRAM", 336)],
    },
    Golden {
        precision: Precision::Fp32,
        geometry: (49152, 32, 1, 24),
        verilog: (6268234, 10606854928894424483),
        verilog_arrays: (222529, 6329133352261818316),
        def: (368, 11601987709326947035),
        hierarchy: (1851, 15674729902341111784),
        counts: &[("DFF", 1426176), ("FA", 40165817), ("HA", 1622079), ("MUX2", 45573376), ("NOR", 37748736), ("OR", 108544), ("SRAM", 1572864)],
    },
    Golden {
        precision: Precision::Fp32,
        geometry: (48, 5, 3, 5),
        verilog: (148279, 7219889473994966252),
        verilog_arrays: (143562, 5460859031547265440),
        def: (349, 855773716737596904),
        hierarchy: (1846, 18422222261912550555),
        counts: &[("DFF", 1416), ("FA", 4539), ("HA", 297), ("MUX2", 42136), ("NOR", 1200), ("OR", 102), ("SRAM", 720)],
    },
];

fn observe(precision: Precision, (n, h, l, k): (u32, u32, u32, u32)) -> String {
    let point = DcimDesign::for_precision(precision, n, h, l, k).expect("valid golden point");
    let compiled = Compiler::new()
        .compile_design(&point)
        .expect("golden point compiles");
    let mut counts: Vec<(&str, u64)> = compiled
        .audit
        .counts
        .iter()
        .map(|(cell, &count)| (cell.name(), count))
        .collect();
    counts.sort_unstable();
    let hierarchy = hierarchy_report(&compiled.netlist).expect("hierarchy report");
    let flat = verilog::emit(&compiled.netlist.flattened()).expect("flattened design emits");
    format!(
        "    Golden {{\n        precision: Precision::{precision:?},\n        geometry: ({n}, {h}, {l}, {k}),\n        verilog: {:?},\n        verilog_arrays: {:?},\n        def: {:?},\n        hierarchy: {:?},\n        counts: &{counts:?},\n    }},\n",
        pin(&flat),
        pin(&compiled.verilog),
        pin(&compiled.def),
        pin(&hierarchy),
    )
}

#[test]
fn generation_outputs_are_byte_identical_to_the_golden_record() {
    let mut mismatches = Vec::new();
    for g in GOLDEN {
        let expected = format!(
            "    Golden {{\n        precision: Precision::{:?},\n        geometry: {:?},\n        verilog: {:?},\n        verilog_arrays: {:?},\n        def: {:?},\n        hierarchy: {:?},\n        counts: &{:?},\n    }},\n",
            g.precision, g.geometry, g.verilog, g.verilog_arrays, g.def, g.hierarchy, g.counts
        );
        let actual = observe(g.precision, g.geometry);
        if actual != expected {
            mismatches.push(format!("expected:\n{expected}actual:\n{actual}"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// The golden points: each precision's `Wstore` = 64K knee geometry (as
/// `sega-dcim compile --wstore 65536` distills it) and a small point with
/// odd `h`, `l` = 3 and a chunk width that does not divide the input.
const POINTS: [(Precision, (u32, u32, u32, u32)); 16] = [
    (Precision::Int2, (16384, 2, 4, 2)),
    (Precision::Int2, (4, 5, 3, 1)),
    (Precision::Int4, (8192, 16, 2, 4)),
    (Precision::Int4, (8, 5, 3, 3)),
    (Precision::Int8, (8192, 64, 1, 8)),
    (Precision::Int8, (16, 7, 3, 3)),
    (Precision::Int16, (16384, 64, 1, 16)),
    (Precision::Int16, (32, 5, 3, 5)),
    (Precision::Fp8, (8192, 32, 1, 4)),
    (Precision::Fp8, (8, 5, 3, 3)),
    (Precision::Fp16, (11264, 64, 1, 11)),
    (Precision::Fp16, (22, 5, 3, 3)),
    (Precision::Bf16, (8192, 64, 1, 8)),
    (Precision::Bf16, (16, 7, 3, 3)),
    (Precision::Fp32, (49152, 32, 1, 24)),
    (Precision::Fp32, (48, 5, 3, 5)),
];

/// Prints the record for [`POINTS`] in the layout of `GOLDEN`:
/// `cargo test -p sega-dcim --test netlist_golden -- --ignored --nocapture`.
#[test]
#[ignore = "prints a fresh golden record"]
fn print_golden_record() {
    for (precision, geometry) in POINTS {
        print!("{}", observe(precision, geometry));
    }
}

#[test]
fn golden_record_covers_every_precision_twice() {
    for precision in sega_dcim::estimator::ALL_PRECISIONS {
        let points = GOLDEN.iter().filter(|g| g.precision == precision).count();
        assert_eq!(points, 2, "{precision:?}");
    }
}

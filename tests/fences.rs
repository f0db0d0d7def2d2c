//! The design fences: code that was deleted or moved on purpose must not
//! come back by accident. Each row of [`FENCES`] names the files it
//! watches, the patterns no line there may contain, and what a match
//! means. A path is a file or a directory (every file under it); a `*` in
//! one of its components matches any run of characters in an entry name.
//! A pattern is literal text, except that `.*` matches any run of
//! characters and a trailing `\b` a word boundary.
//!
//! Three ratchets ride along: the count of `clippy::too_many_arguments`
//! allows ([`MAX_WIDE_ALLOWS`]), the count of hand-written walkers over
//! timed state ([`MAX_WALKER_VIEWS`]) and the list of `pub fn`s no other
//! file names ([`ORPHANS`]) may fall, never grow. Each allow and each
//! walker left must also say which line of the frozen benchmark keeps it.
//!
//! This file names every pattern and every listed orphan, so it is the one
//! file no fence or scan reads.

use std::fs;
use std::path::{Path, PathBuf};

struct Fence {
    paths: &'static [&'static str],
    /// A line matching any of these breaks the fence.
    patterns: &'static [&'static str],
    /// A line containing this text is exempt.
    except: Option<&'static str>,
    message: &'static str,
}

const FENCES: &[Fence] = &[
    // A figure's cell lives in `ros2_fio::figures`: every `ros2_bench`
    // binary, `qd_probe` and `transport_comparison` only print it, and
    // `figure_shapes.rs` only asserts it.
    Fence {
        paths: &[
            "crates/bench/src/bin/*.rs",
            "examples/qd_probe.rs",
            "examples/transport_comparison.rs",
            "tests/figure_shapes.rs",
        ],
        patterns: &[
            "WorldSpec::",
            "run_fio(",
            "LocalFioWorld::new",
            "SpdkFioWorld::new",
            "Ros2System::launch",
            "Fabric::new",
        ],
        except: None,
        message: "a figure binary or figure_shapes.rs builds its own cell instead of calling ros2_fio::figures",
    },
    // Every deployment assembles through `ros2_core::assembly`.
    Fence {
        paths: &["crates/fio/src", "crates/core/src/system.rs"],
        patterns: &[
            "EngineCluster::assemble(",
            "DaosClient::connect_scoped_multi(",
            "DpuClient::connect_cluster(",
        ],
        except: None,
        message: "a world or Ros2System assembles itself instead of calling ros2_core::assembly",
    },
    // Kills, rebuilds and RAS map pushes reach a world's or `Ros2System`'s
    // client stacks only through `FaultCursor::push_map`.
    Fence {
        paths: &["crates/fio/src", "crates/core/src/system.rs"],
        patterns: &["deliver_map("],
        except: None,
        message: "a world or Ros2System delivers a map itself instead of calling ros2_core::fault",
    },
    // `Ros2Error` carries DAOS and DPU failures typed, not as text.
    Fence {
        paths: &["crates/core/src"],
        patterns: &["Ros2Error::Config(format!(\"{e:?}\"))"],
        except: None,
        message: "crates/core stringifies an error into Ros2Error::Config",
    },
    // The `WorldSpec` builder replaced the positional world constructors;
    // the clippy allows they needed stay out of the FIO crate.
    Fence {
        paths: &["crates/fio"],
        patterns: &["too_many_arguments"],
        except: None,
        message: "crates/fio regrew a too_many_arguments allow",
    },
    // The world controls and the fault cursor are typed; only `fn issue`,
    // the `Workload` signature the benchmark implements, returns a string.
    Fence {
        paths: &["crates/fio/src", "crates/core/src"],
        patterns: &["Result<.*, String>"],
        except: Some("fn issue"),
        message: "crates/fio or crates/core regrew a Result<_, String> outside fn issue",
    },
    // VOS verifies every record chunk for chunk; folding chunk CRCs into a
    // range CRC stays inside ros2_buf's extent store.
    Fence {
        paths: &[
            "crates/daos/src",
            "crates/nvme/src",
            "crates/pmem/src",
            "crates/spdk/src",
        ],
        patterns: &["crc_of_range"],
        except: None,
        message: "a media or engine crate regrew crc_of_range",
    },
    // The op path goes through `ObjectClient::execute_into` with the
    // caller's vectors kept; `execute_pipelined` is the benchmark's shim.
    Fence {
        paths: &["crates/dfs/src", "crates/fio/src"],
        patterns: &[".execute_pipelined("],
        except: None,
        message: "DFS or a FIO world calls execute_pipelined instead of execute_into",
    },
    // Each §4.1 component and each medium is described once, in the code
    // the simulator runs.
    Fence {
        paths: &["crates/*/src", "src", "examples"],
        patterns: &[
            "Testbed",
            "StorageServerConfig",
            "HostClientConfig",
            "DpuConfig",
            "SwitchModel",
            "pub fn path_latency",
            "LatencyPipe",
            "DataMode::Pattern",
            "Backing::Pattern",
            "Deallocate",
            "struct Heap\\b",
        ],
        except: None,
        message: "a deleted testbed, switch, latency-pipe or media model came back",
    },
    // `DetLru` orders recency with a slab-backed linked list, so a touch
    // allocates nothing.
    Fence {
        paths: &["crates/sim/src"],
        patterns: &["by_tick"],
        except: None,
        message: "DetLru regrew its tick-keyed index",
    },
    // `ExtentStore` keeps its extents in one sorted vector that media
    // writes append to.
    Fence {
        paths: &["crates/buf/src/store.rs"],
        patterns: &["BTreeMap"],
        except: None,
        message: "ExtentStore regrew a B-tree index",
    },
    // `DaosError` carries each cause as a typed variant.
    Fence {
        paths: &["crates/*/src"],
        patterns: &[
            "DaosError::Transport",
            "DaosError::Media",
            "fn map_fabric",
            "fn map_control",
            "fn chain_error",
        ],
        except: None,
        message: "DaosError regrew a stringly-typed variant or an error-mapper function",
    },
    Fence {
        paths: &["crates/pmem/src"],
        patterns: &["tx_begin", "UndoRecord"],
        except: None,
        message: "ros2_pmem regrew its transaction layer",
    },
    // `ClientPlacement::Dpu` always runs the offloaded `DpuClient`: the
    // in-process client charged at Arm costs, and the kind that selected
    // it, stay deleted.
    Fence {
        paths: &["crates/*/src", "src", "examples", "tests"],
        patterns: &["DpuCostModel", "ClientKind"],
        except: None,
        message: "a second DPU client or a ClientKind switch came back",
    },
    // Each layer has one door per op: the engine's `update`/`fetch` take
    // the map stamp, and the serial client call is `ObjectClient`'s.
    Fence {
        paths: &["crates/*/src"],
        patterns: &[
            "fn update_versioned",
            "fn fetch_versioned",
            "fn connect_multi",
            "fn stage_update\\b",
            "fn stage_fetch\\b",
        ],
        except: None,
        message: "an unfenced engine entry, a connect_multi wrapper or a one-caller staging wrapper came back",
    },
    // The pool map is one type, `PoolMap`, and a route is one value,
    // `Routing`, from `PoolMap::route`: no second map holder, no shared
    // free routing function, no per-purpose route accessors. (Each name is
    // split in two so that a search of the tree for it finds nothing.)
    Fence {
        paths: &["crates/*/src"],
        patterns: &[
            concat!("struct Map", "Snapshot"),
            concat!("fn route", "_in\\b"),
            concat!("fn route", "_fetch_meta"),
            concat!("fn route", "_fetch_snapshot"),
            concat!("fn snapshot", "_map"),
        ],
        except: None,
        message: "a second pool-map type, a shared routing function or a per-purpose route accessor came back",
    },
    // A record's address is one value, `ros2_daos::RecordKey`: VOS keeps
    // no public key pair of its own ...
    Fence {
        paths: &["crates/*/src"],
        patterns: &[concat!("pub struct Key", "Pair")],
        except: None,
        message: "VOS regrew a public key-pair type beside RecordKey",
    },
    // ... and the DPU cache no record key of its own.
    Fence {
        paths: &["crates/dpu/src"],
        patterns: &[concat!("struct Record", "Key")],
        except: None,
        message: "ros2_dpu regrew its own RecordKey instead of using ros2_daos's",
    },
];

/// `clippy::too_many_arguments` allows under `crates/*/src`: the count may
/// fall, never rise. A wide signature takes a struct of its arguments
/// instead. The four left are the doors the benchmark calls positionally
/// (the engine's `update`/`fetch`, `ObjectClient::update`/`fetch`); each
/// says so in a `frozen by benchmark/src/sut.rs:N` comment just above it.
const MAX_WIDE_ALLOWS: usize = 4;

/// How far above an allow or a walker view its `frozen by` comment may
/// sit.
const FROZEN_NOTE_REACH: usize = 3;

/// The walker names: functions that reach every pipe, pool or data-plane
/// counter under a node. Each type lists its timed children once, in
/// `ros2_sim::Timed::visit`, and these are visitors of that walk.
const WALKERS: &[&str] = &[
    "fn reset_timing\\b",
    "fn resource_stats\\b",
    "fn data_plane_stats\\b",
    "fn cache_data_plane_stats\\b",
];

/// The files whose walker-named functions are the walk itself: the three
/// visitors `Timed` provides, and the leaves' own methods — the resets of
/// `BandwidthServer`, `ServerPool` and `QosLane`, and the counter readings
/// of the data-plane holders a node hands to the walk (`Backing`,
/// `PmemPool`, `NodeMemory`, `ReadCache`).
const WALK_FILES: &[&str] = &[
    "crates/sim/src/timed.rs",
    "crates/sim/src/resources.rs",
    "crates/nvme/src/backing.rs",
    "crates/pmem/src/pool.rs",
    "crates/verbs/src/memory.rs",
    "crates/dpu/src/cache.rs",
];

/// Walker-named functions under `crates/*/src` outside [`WALK_FILES`]: the
/// count may fall, never rise. The eight left are views the frozen
/// benchmark calls: `Fabric` and `EngineCluster`'s `resource_stats` and
/// `data_plane_stats` over the walk, and the `&self` readings it reaches
/// through a shared borrow (`ClientStack`, `DaosClient` and `DpuClient`'s
/// `resource_stats`, `DpuClient::cache_data_plane_stats`). Each says so in
/// a `frozen by benchmark/src/sut.rs:N` comment just above it.
const MAX_WALKER_VIEWS: usize = 8;

/// The `pub fn`s under `crates/*/src` that no other Rust file names, by
/// file and name, each with the reason it stays public. A new one is made
/// private, put under `#[cfg(test)]`, deleted, or listed here with its
/// reason; one that gains a caller elsewhere leaves the list.
const ORPHANS: &[(&str, &str, &str)] = &[(
    "crates/sim/src/rng.rs",
    "exp_ns",
    "the open-loop arrival sampler, with its own test; no workload draws Poisson arrivals yet",
)];

/// The existing files and directories `path` names under `root`.
fn expand(root: &Path, path: &str) -> Vec<PathBuf> {
    let mut found = vec![root.to_path_buf()];
    for part in path.split('/') {
        found = found
            .into_iter()
            .flat_map(|dir| match part.split_once('*') {
                None => [dir.join(part)]
                    .into_iter()
                    .filter(|p| p.exists())
                    .collect(),
                Some((head, tail)) => {
                    let mut entries: Vec<PathBuf> = fs::read_dir(&dir)
                        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
                        .map(|entry| entry.unwrap().path())
                        .filter(|p| {
                            let name = p.file_name().unwrap().to_string_lossy();
                            name.len() >= head.len() + tail.len()
                                && name.starts_with(head)
                                && name.ends_with(tail)
                        })
                        .collect();
                    entries.sort();
                    entries
                }
            })
            .collect();
    }
    found
}

/// Every file at or under `path`, in name order.
fn files(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_dir() {
        let mut entries: Vec<PathBuf> = fs::read_dir(path)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .collect();
        entries.sort();
        for entry in entries {
            files(&entry, out);
        }
    } else {
        out.push(path.to_path_buf());
    }
}

/// The end of the first match of `piece` in `line` (a trailing `\b`
/// requires that no word character follows it).
fn find(line: &str, piece: &str) -> Option<usize> {
    let (text, boundary) = match piece.strip_suffix("\\b") {
        Some(text) => (text, true),
        None => (piece, false),
    };
    line.match_indices(text)
        .map(|(at, _)| at + text.len())
        .find(|&end| {
            !boundary
                || !line[end..]
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_')
        })
}

/// Whether `line` contains `pattern`.
fn contains(line: &str, pattern: &str) -> bool {
    match pattern.split_once(".*") {
        None => find(line, pattern).is_some(),
        Some((head, tail)) => find(line, head).is_some_and(|end| contains(&line[end..], tail)),
    }
}

#[test]
fn no_fenced_pattern_comes_back() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let this_file = root.join(file!());
    let mut broken = Vec::new();
    for fence in FENCES {
        let mut watched = Vec::new();
        for path in fence.paths {
            let expanded = expand(root, path);
            assert!(
                !expanded.is_empty(),
                "a fence names {path}, which matches nothing"
            );
            for p in expanded {
                files(&p, &mut watched);
            }
        }
        let mut hits = Vec::new();
        for file in watched.iter().filter(|f| **f != this_file) {
            let text = String::from_utf8_lossy(&fs::read(file).unwrap()).into_owned();
            for (n, line) in text.lines().enumerate() {
                let exempt = fence.except.is_some_and(|e| line.contains(e));
                if !exempt && fence.patterns.iter().any(|p| contains(line, p)) {
                    let shown = file.strip_prefix(root).unwrap().display();
                    hits.push(format!("  {shown}:{}: {}", n + 1, line.trim()));
                }
            }
        }
        if !hits.is_empty() {
            broken.push(format!("{}:\n{}", fence.message, hits.join("\n")));
        }
    }
    assert!(broken.is_empty(), "\n{}", broken.join("\n"));
}

#[test]
fn patterns_match_as_documented() {
    assert!(contains(
        "fn f() -> Result<u8, String> {",
        "Result<.*, String>"
    ));
    assert!(!contains(
        "fn f() -> Result<u8, DaosError>",
        "Result<.*, String>"
    ));
    assert!(contains("pub struct Heap {", "struct Heap\\b"));
    assert!(!contains("pub struct HeapStats {", "struct Heap\\b"));
    assert!(contains("x.execute_pipelined(ops)", ".execute_pipelined("));
    assert!(!contains("fn execute_pipelined(", ".execute_pipelined("));
    assert!(contains("    fn stage_update(", "fn stage_update\\b"));
    assert_eq!(
        frozen_by("    // frozen by benchmark/src/sut.rs:835"),
        Some(835)
    );
    assert_eq!(frozen_by("    // frozen by the benchmark"), None);
    assert!(!contains("    fn stage_update_from(", "fn stage_update\\b"));
    assert!(contains(
        "    pub fn data_plane_stats(&mut self)",
        WALKERS[2]
    ));
    assert!(!contains(
        "    pub fn cache_data_plane_stats(&self)",
        WALKERS[2]
    ));
}

/// Every `.rs` file at or under each of `paths` (with `*` expanded),
/// except this one.
fn rust_files(root: &Path, paths: &[&str]) -> Vec<PathBuf> {
    let this_file = root.join(file!());
    let mut out = Vec::new();
    for path in paths {
        for p in expand(root, path) {
            files(&p, &mut out);
        }
    }
    out.retain(|f| f.extension().is_some_and(|e| e == "rs") && *f != this_file);
    out
}

fn read(file: &Path) -> String {
    String::from_utf8_lossy(&fs::read(file).unwrap()).into_owned()
}

/// The line `frozen by benchmark/src/sut.rs:N` names in `line`, if any.
fn frozen_by(line: &str) -> Option<usize> {
    let (_, n) = line.split_once("frozen by benchmark/src/sut.rs:")?;
    let digits = n.find(|c: char| !c.is_ascii_digit()).unwrap_or(n.len());
    n[..digits].parse().ok()
}

#[test]
fn wide_signature_allows_only_fall() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let sut = read(&root.join("benchmark/src/sut.rs"));
    let sut: Vec<&str> = sut.lines().collect();
    let mut allows = 0;
    let mut unexplained = Vec::new();
    for file in rust_files(root, &["crates/*/src"]) {
        let text = read(&file);
        let lines: Vec<&str> = text.lines().collect();
        for (n, line) in lines.iter().enumerate() {
            if !line.contains("clippy::too_many_arguments") {
                continue;
            }
            allows += 1;
            // The note names a line of sut.rs that calls or implements the
            // door: that line names the function the allow sits on.
            let door = lines[n + 1..]
                .iter()
                .find_map(|l| l.split_once("fn ").map(|(_, rest)| rest))
                .and_then(|rest| rest.split('(').next())
                .unwrap_or("");
            if !frozen_note_names(&lines, n, &sut, door) {
                let shown = file.strip_prefix(root).unwrap().display();
                unexplained.push(format!("  {shown}:{}", n + 1));
            }
        }
    }
    assert!(
        allows <= MAX_WIDE_ALLOWS,
        "{allows} too_many_arguments allows under crates/*/src, at most {MAX_WIDE_ALLOWS}"
    );
    assert!(
        unexplained.is_empty(),
        "too_many_arguments allows without a `frozen by benchmark/src/sut.rs:N` comment in the \
         {FROZEN_NOTE_REACH} lines above, N a line of sut.rs that names the function:\n{}",
        unexplained.join("\n")
    );
}

/// Whether a `frozen by benchmark/src/sut.rs:N` comment in the
/// [`FROZEN_NOTE_REACH`] lines above line `n` of `lines` names a line of
/// `sut` that calls or implements `door`.
fn frozen_note_names(lines: &[&str], n: usize, sut: &[&str], door: &str) -> bool {
    lines[n.saturating_sub(FROZEN_NOTE_REACH)..n]
        .iter()
        .filter_map(|l| frozen_by(l))
        .any(|at| {
            at >= 1
                && sut
                    .get(at - 1)
                    .is_some_and(|l| !door.is_empty() && l.contains(&format!("{door}(")))
        })
}

#[test]
fn hand_walkers_only_fall() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let sut = read(&root.join("benchmark/src/sut.rs"));
    let sut: Vec<&str> = sut.lines().collect();
    let walk: Vec<PathBuf> = WALK_FILES.iter().map(|f| root.join(f)).collect();
    let mut views = Vec::new();
    let mut unexplained = Vec::new();
    for file in rust_files(root, &["crates/*/src"]) {
        if walk.contains(&file) {
            continue;
        }
        let text = read(&file);
        let lines: Vec<&str> = text.lines().collect();
        for (n, line) in lines.iter().enumerate() {
            let Some(walker) = WALKERS.iter().find(|w| contains(line, w)) else {
                continue;
            };
            let name = walker.trim_start_matches("fn ").trim_end_matches("\\b");
            let shown = format!("  {}:{}", file.strip_prefix(root).unwrap().display(), n + 1);
            if !frozen_note_names(&lines, n, &sut, name) {
                unexplained.push(shown.clone());
            }
            views.push(shown);
        }
    }
    assert!(
        views.len() <= MAX_WALKER_VIEWS,
        "{} functions under crates/*/src walk timed state by hand, at most \
         {MAX_WALKER_VIEWS}; list the children in `Timed::visit` instead:\n{}",
        views.len(),
        views.join("\n")
    );
    assert!(
        unexplained.is_empty(),
        "walker views without a `frozen by benchmark/src/sut.rs:N` comment in the \
         {FROZEN_NOTE_REACH} lines above, N a line of sut.rs that names the function:\n{}",
        unexplained.join("\n")
    );
}

/// The names `pub fn` declares in `text`.
fn pub_fns(text: &str) -> Vec<&str> {
    text.match_indices("pub fn ")
        .map(|(at, decl)| {
            let rest = &text[at + decl.len()..];
            let end = rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .unwrap_or(rest.len());
            &rest[..end]
        })
        .filter(|name| !name.is_empty())
        .collect()
}

/// The words of `text`: its runs of letters, digits and `_`.
fn words(text: &str) -> std::collections::HashSet<&str> {
    text.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
        .collect()
}

#[test]
fn orphan_pub_fns_are_listed() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let declaring = rust_files(root, &["crates/*/src"]);
    let texts: Vec<(PathBuf, String)> = rust_files(
        root,
        &["crates", "src", "examples", "tests", "benchmark/src"],
    )
    .into_iter()
    .map(|f| {
        let text = read(&f);
        (f, text)
    })
    .collect();
    let vocab: Vec<(&Path, std::collections::HashSet<&str>)> = texts
        .iter()
        .map(|(f, text)| (f.as_path(), words(text)))
        .collect();
    let mut found = Vec::new();
    for file in &declaring {
        let shown = file.strip_prefix(root).unwrap().display().to_string();
        for name in pub_fns(&read(file)) {
            let named_elsewhere = vocab
                .iter()
                .any(|(f, words)| *f != file.as_path() && words.contains(name));
            if !named_elsewhere {
                found.push((shown.clone(), name.to_string()));
            }
        }
    }
    let listed = |file: &str, name: &str| ORPHANS.iter().any(|o| (o.0, o.1) == (file, name));
    let new: Vec<String> = found
        .iter()
        .filter(|(file, name)| !listed(file, name))
        .map(|(file, name)| format!("  {file} {name}"))
        .collect();
    let stale: Vec<String> = ORPHANS
        .iter()
        .filter(|o| {
            !found
                .iter()
                .any(|(file, name)| (file.as_str(), name.as_str()) == (o.0, o.1))
        })
        .map(|o| format!("  {} {}", o.0, o.1))
        .collect();
    assert!(
        new.is_empty(),
        "pub fns no other file names (make each private, #[cfg(test)], delete it, or list it in ORPHANS with a reason):\n{}",
        new.join("\n")
    );
    assert!(
        stale.is_empty(),
        "ORPHANS entries that are no longer orphans (drop them from the list):\n{}",
        stale.join("\n")
    );
}

#[test]
fn orphan_scan_reads_as_documented() {
    assert_eq!(
        pub_fns("pub fn a(x: u8) {}\n    pub fn b_2<T>() {}\n pub(crate) fn c() {}"),
        ["a", "b_2"]
    );
    let w = words("x.exp_ns(1.0); // exp_nsx");
    assert!(w.contains("exp_ns") && w.contains("exp_nsx") && !w.contains("exp"));
}

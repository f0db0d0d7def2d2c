//! The design fences: code that was deleted or moved on purpose must not
//! come back by accident. Each row of [`FENCES`] names the files it
//! watches, the patterns no line there may contain, and what a match
//! means. A path is a file or a directory (every file under it); a `*` in
//! one of its components matches any run of characters in an entry name.
//! A pattern is literal text, except that `.*` matches any run of
//! characters and a trailing `\b` a word boundary.
//!
//! This file names every pattern, so it is the one file no fence reads.

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
            "DaosClient::connect_multi(",
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
];

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
}

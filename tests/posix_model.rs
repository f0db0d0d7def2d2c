//! Model-based property test: random namespace/file operation sequences
//! against the kit's DFS shadow (`ros2_testkit::DfsShadow`). DFS over the
//! full ROS2 stack must give the shadow's answer to every call, error
//! kinds included. A last test holds the shadow itself to wrong answers.

use proptest::prelude::*;
use ros2::core::{Ros2Config, Ros2System};
use ros2::dfs::DfsError;
use ros2_testkit::{stamped, DfsShadow};

/// One DFS call on directory `/d{dir}` or file `/d{dir}/f{file}`.
#[derive(Debug, Clone)]
enum Op {
    /// `(dir)`
    Mkdir(u8),
    /// `(dir, file)`
    Create(u8, u8),
    /// `(dir, file, offset, len, fill)`
    Write(u8, u8, u32, u16, u8),
    /// `(dir, file, offset, len)`
    Read(u8, u8, u32, u16),
    /// `(dir)`
    Readdir(u8),
    /// `(dir, file)`
    Unlink(u8, u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..3).prop_map(Op::Mkdir),
        (0u8..3, 0u8..4).prop_map(|(d, f)| Op::Create(d, f)),
        (0u8..3, 0u8..4, 0u32..200_000, 0u16..4096, any::<u8>())
            .prop_map(|(d, f, offset, len, fill)| Op::Write(d, f, offset, len, fill)),
        (0u8..3, 0u8..4, 0u32..250_000, 1u16..4096)
            .prop_map(|(d, f, offset, len)| Op::Read(d, f, offset, len)),
        (0u8..3).prop_map(Op::Readdir),
        (0u8..3, 0u8..4).prop_map(|(d, f)| Op::Unlink(d, f)),
    ]
}

fn dpath(dir: u8) -> String {
    format!("/d{dir}")
}
fn fpath(dir: u8, file: u8) -> String {
    format!("/d{dir}/f{file}")
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        max_shrink_iters: 64,
    })]
    #[test]
    fn dfs_agrees_with_reference_model(ops in prop::collection::vec(op_strategy(), 1..40)) {
        let mut sys = Ros2System::launch(Ros2Config::default()).unwrap();
        let mut fs = DfsShadow::default();
        for op in ops {
            match op {
                Op::Mkdir(d) => drop(fs.mkdir(&dpath(d), sys.mkdir(&dpath(d)))),
                Op::Create(d, f) => drop(fs.create(&fpath(d, f), sys.create(&fpath(d, f)))),
                Op::Write(d, f, offset, len, fill) => {
                    let path = fpath(d, f);
                    if let Ok(mut file) = fs.open(&path, sys.open(&path).map(|t| t.value)) {
                        let data = stamped(file.oid, offset as u64, fill as u64, len as usize);
                        sys.write(&mut file, offset as u64, data.clone()).unwrap();
                        fs.write(&path, offset as u64, &data);
                    }
                }
                Op::Read(d, f, offset, len) => {
                    let path = fpath(d, f);
                    if let Ok(file) = fs.open(&path, sys.open(&path).map(|t| t.value)) {
                        let got = sys.read(&file, offset as u64, len as u64).map(|t| t.value);
                        fs.read(&path, offset as u64, len as u64, got);
                    }
                }
                Op::Readdir(d) => {
                    fs.readdir(&dpath(d), sys.readdir(&dpath(d)).map(|t| t.value))
                }
                Op::Unlink(d, f) => {
                    fs.unlink(&fpath(d, f), sys.unlink(&fpath(d, f)).map(|t| t.value))
                }
            }
        }
    }
}

type Answer<T> = Result<T, DfsError>;

/// Runs `check` on a shadow of directory `/d` holding file `/d/f`, which
/// holds `new`, and says whether the shadow refused the answer it got.
fn refuses(check: fn(&mut DfsShadow)) -> bool {
    let mut fs = DfsShadow::default();
    fs.mkdir("/d", Answer::Ok(())).unwrap();
    fs.create("/d/f", Answer::Ok(())).unwrap();
    fs.write("/d/f", 0, b"new");
    std::panic::catch_unwind(move || check(&mut fs)).is_err()
}

#[test]
fn the_shadow_refuses_wrong_answers() {
    let stale = |fs: &mut DfsShadow| fs.read("/d/f", 0, 3, Answer::Ok("old".into()));
    let short = |fs: &mut DfsShadow| fs.readdir("/d", Answer::Ok(vec![]));
    let exists = |fs: &mut DfsShadow| drop(fs.create("/d/f", Answer::Ok(())));
    assert!(refuses(stale), "a stale read");
    assert!(refuses(short), "a readdir missing a name");
    assert!(refuses(exists), "Ok for a create over an existing name");
    // The right answers pass.
    assert!(!refuses(|fs| fs.read(
        "/d/f",
        0,
        3,
        Answer::Ok("new".into())
    )));
    assert!(!refuses(|fs| fs.readdir("/d", Answer::Ok(vec!["f".into()]))));
    assert!(!refuses(|fs| drop(
        fs.create("/d/f", Answer::<()>::Err(DfsError::Exists))
    )));
}

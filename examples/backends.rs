//! Lists the compute backends this CPU can run, one per line in
//! `DP_BACKEND` spelling, and marks the one `DP_BACKEND=auto` picks.
//! `scripts/ci.sh` reads it to test the SIMD tiers `auto` passes over.
//!
//!     cargo run --release --example backends

use fekf_deepmd::tensor::backend;

fn main() {
    let auto = backend::auto_kind();
    for kind in backend::available() {
        println!("{}{}", kind.name(), if kind == auto { " (auto)" } else { "" });
    }
}

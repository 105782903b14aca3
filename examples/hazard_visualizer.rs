//! Hazard visualizer: run any short assembly snippet through the timing
//! simulator and print the stage-by-cycle diagram, Figure-2 style (a
//! stalled instruction repeats its ID stage until issue).
//!
//! ```text
//! cargo run --example hazard_visualizer                    # built-in demos
//! cargo run --example hazard_visualizer -- my_program.asc  # your own code
//! cargo run --example hazard_visualizer -- my_program.asc 64 2
//! #                                         file        PEs  arity
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use asc::core::obs::{MemorySink, SinkHandle};
use asc::core::pipeline::hazard_diagram;
use asc::core::{Machine, MachineConfig};

fn show(title: &str, source: &str, cfg: MachineConfig) {
    let program = match asc::asm::assemble(source) {
        Ok(p) => p,
        Err(errs) => {
            eprintln!("assembly errors:\n{}", asc::asm::render_errors(&errs));
            std::process::exit(1);
        }
    };
    let mut m = Machine::with_program(cfg, &program).expect("loads");
    let trace = Rc::new(RefCell::new(MemorySink::new()));
    m.attach_sink(SinkHandle::shared(trace.clone()));
    if let Err(e) = m.run(100_000) {
        eprintln!("run failed: {e}");
        std::process::exit(1);
    }
    let t = m.timing();
    println!("=== {title} (p = {}, b = {}, r = {}) ===", cfg.num_pes, t.b, t.r);
    println!("{}", hazard_diagram(trace.borrow().events(), &t));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(path) = args.first() {
        let source = std::fs::read_to_string(path).expect("readable source file");
        let pes = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(16);
        let arity = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4);
        show(path, &source, MachineConfig::new(pes).with_arity(arity));
        return;
    }

    let cfg = MachineConfig::prototype();
    show(
        "broadcast hazard: EX->B1 forwarding, no stall",
        "sub   s1, s2, s3\npadds p1, p2, s1\nhalt\n",
        cfg,
    );
    show(
        "reduction hazard: dependent scalar stalls b+r",
        "rmax s1, p2\nsub  s3, s1, s1\nhalt\n",
        cfg,
    );
    show(
        "broadcast-reduction hazard: dependent parallel stalls b+r",
        "rmax  s1, p2\npadds p1, p2, s1\nhalt\n",
        cfg,
    );
    show(
        "same hazard on a bigger machine (p = 1024: b = 5, r = 10)",
        "rmax  s1, p2\npadds p1, p2, s1\nhalt\n",
        MachineConfig::new(1024),
    );
    println!("Tip: pass a file of MTASC assembly to visualize your own code.");
}

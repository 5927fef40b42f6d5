//! Quickstart: retarget the compiler to a tiny accumulator machine
//! described in HDL, compile one mini-C statement, inspect the result,
//! and record a Chrome trace of the compile for Perfetto.
//!
//! Run with `cargo run --example quickstart`.

use record_core::{CompileRequest, Record, RetargetOptions};

/// A complete HDL processor model: an 8-entry memory, an accumulator and a
/// three-function ALU controlled by instruction fields.
const HDL: &str = r#"
    module Alu {
        in a: bit(16);
        in b: bit(16);
        ctrl f: bit(2);
        out y: bit(16);
        behavior {
            case f {
                0 => y = a + b;
                1 => y = a - b;
                2 => y = a * b;
                3 => y = b;
            }
        }
    }
    module Acc {
        in d: bit(16);
        ctrl en: bit(1);
        out q: bit(16);
        register q = d when en == 1;
    }
    module Ram {
        in addr: bit(3);
        in din: bit(16);
        ctrl w: bit(1);
        out dout: bit(16);
        memory cells[8]: bit(16);
        read dout = cells[addr];
        write cells[addr] = din when w == 1;
    }
    processor Tiny {
        instruction word: bit(8);
        parts { alu: Alu; acc: Acc; ram: Ram; }
        connections {
            alu.a = acc.q;
            alu.b = ram.dout;
            alu.f = I[1:0];
            acc.d = alu.y;
            acc.en = I[7];
            ram.addr = I[4:2];
            ram.din = acc.q;
            ram.w = I[6];
        }
    }
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Retargeting: HDL -> netlist -> RT templates -> grammar -> selector.
    // The result is a frozen artifact: compiling borrows it immutably.
    // Its report is the record of the retarget: counts and phase times.
    let target = Record::retarget(HDL, &RetargetOptions::default())?;
    let stats = target.report();
    println!(
        "retargeted `{}`: {} RT templates, {} grammar rules in {:.2?}",
        stats.processor,
        stats.templates_extended,
        stats.rules,
        stats.t_total()
    );

    // The extracted instruction set, as the paper's RT notation.
    println!("\nextracted RT templates:");
    for t in target.base().templates() {
        println!("  {}", t.render(target.netlist()));
    }

    // Compile a statement and show the selected code.  Using a session
    // with a collector installed traces the compile too; the generated
    // code is byte-identical to the untraced `target.compile` path.
    let mut session = target.session();
    session.install_collector(0);
    let kernel = session.compile(&CompileRequest::new(
        "int x, a, b; void f() { x = x + a * b; }",
        "f",
    ))?;
    let trace = session.take_trace().expect("collector was installed");
    println!(
        "\ncompiled `x = x + a * b;` to {} words:",
        kernel.code_size()
    );
    println!("{}", target.listing(&kernel));

    // Execute it: x=10, a=3, b=4 -> x=22.
    let machine = target.execute(&kernel, &[("x", vec![10]), ("a", vec![3]), ("b", vec![4])]);
    let dm = target.data_memory()?;
    println!("result: x = {}", machine.mem(dm, 0));

    // Where did the time go?  The always-on reports answer in text...
    print!("\n{}", stats.report.render_table("retarget phases"));
    print!("{}", kernel.report.render_table("compile phases"));

    // ...and the compile trace answers visually: open the written file in
    // Perfetto (https://ui.perfetto.dev) or chrome://tracing.
    // Per-statement spans nest inside the `codegen` span.
    let path = std::env::temp_dir().join("record-quickstart-trace.json");
    std::fs::write(&path, trace.to_chrome_json("record quickstart"))?;
    println!("chrome trace written to {}", path.display());

    // The tiny machine above is branchless: it can only run straight-line
    // code.  Models that declare a program counter (`pc { pc }`) also get
    // runtime control flow — the reference model's comparator and guarded
    // PC update paths let the compiler lower `if`/`while` to real
    // compare-and-branch code.  Compile one branchy kernel end to end:
    let ref_model = record_targets::models::model("ref").expect("ref model exists");
    let ref_target = Record::retarget(ref_model.hdl, &RetargetOptions::default())?;
    let vec_max = record_targets::kernel("vec_max").expect("control kernel exists");
    let branchy = ref_target.compile(&CompileRequest::new(vec_max.source, vec_max.function))?;
    println!(
        "\ncompiled `{}` (data-dependent branches) to {} words on `ref`",
        vec_max.name,
        branchy.code_size()
    );
    let machine = ref_target.execute(
        &branchy,
        &[("a", vec![3, 9, 1, 40, 7, 2, 25, 8]), ("max", vec![0])],
    );
    let (_, max_addr) = branchy
        .binding
        .assignments()
        .find(|(n, _)| *n == "max")
        .expect("max is bound");
    let dm = ref_target.data_memory()?;
    println!("result: max = {}", machine.mem(dm, max_addr));
    Ok(())
}

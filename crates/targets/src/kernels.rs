//! The ten DSPstone basic blocks of Figure 2, in mini-C.
//!
//! Kernel bodies follow the DSPstone "application benchmark" definitions
//! (Zivojnovic et al., ICSPAT 1994) at fixed sizes small enough to unroll.
//! Each kernel carries a hand-written reference code size for the
//! TMS320C25-like model: the instruction counts of the assembly a DSP
//! programmer would write (listings in comments), playing the role of the
//! paper's "hand-written code = 100 %" bars.

/// One benchmark kernel.
#[derive(Debug, Clone, Copy)]
pub struct Kernel {
    /// DSPstone kernel name (Figure 2 x-axis).
    pub name: &'static str,
    /// Mini-C source.
    pub source: &'static str,
    /// Name of the function to compile.
    pub function: &'static str,
    /// Hand-written instruction count on the TMS320C25-like model.
    pub hand_ops: usize,
}

/// All ten kernels in Figure 2 order.
pub fn kernels() -> [Kernel; 10] {
    [
        // LT a; MPY b; LAC c; APAC; SACL d            = 5
        Kernel {
            name: "real_update",
            source: "int a, b, c, d;
                     void kernel() { d = c + a * b; }",
            function: "kernel",
            hand_ops: 5,
        },
        // cr: LT ar; MPY br; PAC; LT ai; MPY bi; SPAC; SACL cr = 7
        // ci: LT ar; MPY bi; PAC; LT ai; MPY br; APAC; SACL ci = 7
        Kernel {
            name: "complex_mult",
            source: "int ar, ai, br, bi, cr, ci;
                     void kernel() {
                         cr = ar * br - ai * bi;
                         ci = ar * bi + ai * br;
                     }",
            function: "kernel",
            hand_ops: 14,
        },
        // As complex_mult but accumulating: LAC cr first => 8 + 8
        Kernel {
            name: "complex_update",
            source: "int ar, ai, br, bi, cr, ci;
                     void kernel() {
                         cr = cr + ar * br - ai * bi;
                         ci = ci + ar * bi + ai * br;
                     }",
            function: "kernel",
            hand_ops: 16,
        },
        // Per element: LT a[i]; MPY b[i]; LAC c[i]; APAC; SACL d[i] = 5 x 4
        Kernel {
            name: "n_real_updates",
            source: "int a[4], b[4], c[4], d[4];
                     void kernel() {
                         int i;
                         for (i = 0; i < 4; i++) { d[i] = c[i] + a[i] * b[i]; }
                     }",
            function: "kernel",
            hand_ops: 20,
        },
        // Per pair: complex update = 16, x2 pairs
        Kernel {
            name: "n_complex_updates",
            source: "int ar[2], ai[2], br[2], bi[2], cr[2], ci[2];
                     void kernel() {
                         int i;
                         for (i = 0; i < 2; i++) {
                             cr[i] = cr[i] + ar[i] * br[i] - ai[i] * bi[i];
                             ci[i] = ci[i] + ar[i] * bi[i] + ai[i] * br[i];
                         }
                     }",
            function: "kernel",
            hand_ops: 32,
        },
        // Sum: LACK 0 (1) + 8x(LT; MPY; APAC) (24) + SACL y (1) = 26
        // Delay line: 7 x (LAC x[i-1]; SACL x[i]) = 14            -> 40
        Kernel {
            name: "fir",
            source: "int c[8], x[8], y;
                     void kernel() {
                         int i;
                         y = 0;
                         for (i = 0; i < 8; i++) { y += c[i] * x[i]; }
                         x[7] = x[6]; x[6] = x[5]; x[5] = x[4]; x[4] = x[3];
                         x[3] = x[2]; x[2] = x[1]; x[1] = x[0];
                     }",
            function: "kernel",
            hand_ops: 40,
        },
        // w = x - a1*w1 - a2*w2: LAC x; LT w1; MPY a1; SPAC; LT w2; MPY a2; SPAC; SACL w  = 8
        // y = b0*w + b1*w1 + b2*w2: LT w; MPY b0; PAC; LT w1; MPY b1; APAC; LT w2; MPY b2; APAC; SACL y = 10
        // w2 = w1; w1 = w: 2 x (LAC; SACL) = 4                     -> 22
        Kernel {
            name: "biquad_one",
            source: "int x, y, w, w1, w2, a1, a2, b0, b1, b2;
                     void kernel() {
                         w = x - a1 * w1 - a2 * w2;
                         y = b0 * w + b1 * w1 + b2 * w2;
                         w2 = w1;
                         w1 = w;
                     }",
            function: "kernel",
            hand_ops: 22,
        },
        // 2 sections x 22
        Kernel {
            name: "biquad_N",
            source: "int x, y[2], w[2], w1[2], w2[2], a1[2], a2[2], b0[2], b1[2], b2[2];
                     void kernel() {
                         int i;
                         for (i = 0; i < 2; i++) {
                             w[i] = x - a1[i] * w1[i] - a2[i] * w2[i];
                             y[i] = b0[i] * w[i] + b1[i] * w1[i] + b2[i] * w2[i];
                             w2[i] = w1[i];
                             w1[i] = w[i];
                         }
                     }",
            function: "kernel",
            hand_ops: 44,
        },
        // LACK 0 + 8 x (LT; MPY; APAC) + SACL = 26
        Kernel {
            name: "dot_product",
            source: "int a[8], b[8], s;
                     void kernel() {
                         int i;
                         s = 0;
                         for (i = 0; i < 8; i++) { s += a[i] * b[i]; }
                     }",
            function: "kernel",
            hand_ops: 26,
        },
        // Same MAC structure with reversed operand indexing = 26
        Kernel {
            name: "convolution",
            source: "int h[8], x[8], y;
                     void kernel() {
                         int i;
                         y = 0;
                         for (i = 0; i < 8; i++) { y += h[i] * x[7 - i]; }
                     }",
            function: "kernel",
            hand_ops: 26,
        },
    ]
}

/// Control-flow kernels: data-dependent branches and loops that cannot be
/// resolved at compile time, exercising the compiler on multi-block CFGs
/// (basic-block lowering, branch emission against the target's PC update
/// templates, per-block allocation and compaction).
///
/// These are deliberately kept out of [`kernels`]: the Figure 2 experiment
/// iterates the straight-line set only.  The golden listings pin both
/// sets byte-for-byte.  `hand_ops` counts assume a conditional-branch
/// machine in the TMS320C25 style (compare, branch, move per element).
pub fn control_kernels() -> [Kernel; 4] {
    [
        // Per element: LAC max; SUB a[i]; BGEZ skip; LAC a[i]; SACL max = ~5 x 7 + 2
        Kernel {
            name: "vec_max",
            source: "int a[8], max;
                     void kernel() {
                         int i;
                         max = a[0];
                         for (i = 1; i < 8; i++) {
                             if (max < a[i]) { max = a[i]; }
                         }
                     }",
            function: "kernel",
            hand_ops: 37,
        },
        // Per element: two compare-and-move clamps against memory bounds.
        Kernel {
            name: "clip",
            source: "int x[8], lo, hi;
                     void kernel() {
                         int i;
                         for (i = 0; i < 8; i++) {
                             if (hi < x[i]) { x[i] = hi; }
                             if (x[i] < lo) { x[i] = lo; }
                         }
                     }",
            function: "kernel",
            hand_ops: 64,
        },
        // Per element: compare against a threshold, accumulate when above.
        Kernel {
            name: "cond_accum",
            source: "int a[8], t, s;
                     void kernel() {
                         int i;
                         s = 0;
                         for (i = 0; i < 8; i++) {
                             if (t < a[i]) { s += a[i]; }
                         }
                     }",
            function: "kernel",
            hand_ops: 42,
        },
        // A genuine runtime loop: the trip count depends on input data, so
        // the frontend cannot unroll it and must lower a CFG with a back
        // edge.
        Kernel {
            name: "count_down",
            source: "int n, s;
                     void kernel() {
                         s = 0;
                         while (n) {
                             s += n;
                             n = n - 1;
                         }
                     }",
            function: "kernel",
            hand_ops: 8,
        },
    ]
}

/// Looks up a kernel by name, searching the straight-line set first and
/// the control-flow set second.
pub fn kernel(name: &str) -> Option<Kernel> {
    kernels()
        .into_iter()
        .find(|k| k.name == name)
        .or_else(|| control_kernels().into_iter().find(|k| k.name == name))
}

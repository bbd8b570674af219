//! The Verilog generator: a [`BufferPlan`] in, a synthesisable design out.

use smache::config::{BufferPlan, Segment, SourceRef};
use smache::CoreResult;

use crate::emit::CodeWriter;

/// A generated design: named Verilog source files plus a manifest.
#[derive(Debug, Clone)]
pub struct VerilogDesign {
    /// `(file name, source text)` pairs, top module last.
    pub files: Vec<(String, String)>,
}

impl VerilogDesign {
    /// Concatenates every file into one compilation unit.
    pub fn single_unit(&self) -> String {
        let mut out = String::new();
        for (name, src) in &self.files {
            out.push_str(&format!("// ---- {name} ----\n"));
            out.push_str(src);
            out.push('\n');
        }
        out
    }

    /// Writes each file into `dir`.
    pub fn write_to_dir(&self, dir: &std::path::Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        for (name, src) in &self.files {
            std::fs::write(dir.join(name), src)?;
        }
        Ok(())
    }

    /// Finds a file's source by name.
    pub fn file(&self, name: &str) -> Option<&str> {
        self.files
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s.as_str())
    }
}

/// The generator.
pub struct VerilogGen<'a> {
    plan: &'a BufferPlan,
}

impl<'a> VerilogGen<'a> {
    /// Creates a generator over a plan.
    pub fn new(plan: &'a BufferPlan) -> Self {
        VerilogGen { plan }
    }

    /// Generates the complete design.
    pub fn generate(&self) -> CoreResult<VerilogDesign> {
        if self.plan.statics_are_regions {
            return Err(smache::CoreError::Config(
                "codegen supports per-offset static buffers only; build the plan \
                 without dedupe_static_regions"
                    .into(),
            ));
        }
        let files = vec![
            ("bram_fifo.v".to_string(), self.bram_fifo()),
            ("static_buffer.v".to_string(), self.static_buffer()),
            ("stream_buffer.v".to_string(), self.stream_buffer()),
            ("gather_unit.v".to_string(), self.gather_unit()?),
            ("kernel_avg.v".to_string(), self.kernel_avg()),
            ("smache_ctrl.v".to_string(), self.controller()),
            ("smache_top.v".to_string(), self.top()),
        ];
        Ok(VerilogDesign { files })
    }

    fn w(&self) -> u32 {
        self.plan.word_bits
    }

    fn idx_bits(&self) -> u32 {
        let n = self.plan.grid.len().max(2) as u64;
        (64 - (n - 1).leading_zeros()).max(1)
    }

    fn header(&self, w: &mut CodeWriter, what: &str) {
        w.line(&format!("// {what}"));
        w.line("// Generated by smache-codegen from a BufferPlan.");
        w.line(&format!(
            "// grid={:?} capacity={} taps={:?} statics={} case_count={}",
            self.plan.grid.dims(),
            self.plan.capacity,
            self.plan.taps,
            self.plan.static_buffers.len(),
            self.plan.n_cases
        ));
        w.blank();
    }

    /// Depth-parameterised synchronous FIFO used for the hybrid stretches.
    fn bram_fifo(&self) -> String {
        let mut w = CodeWriter::new();
        self.header(&mut w, "Synchronous BRAM FIFO (first-word fall-through)");
        w.line("module bram_fifo #(parameter DEPTH = 8, parameter WIDTH = 32, parameter AW = 3) (");
        w.indented(|w| {
            w.line("input  wire             clk,");
            w.line("input  wire             rst,");
            w.line("input  wire             push,");
            w.line("input  wire             pop,");
            w.line("input  wire [WIDTH-1:0] din,");
            w.line("output reg  [WIDTH-1:0] dout,");
            w.line("output wire             full,");
            w.line("output wire             empty");
        });
        w.line(");");
        w.indented(|w| {
            w.line("reg [WIDTH-1:0] mem [0:DEPTH-1];");
            w.line("reg [AW:0] count;");
            w.line("reg [AW-1:0] rd_ptr, wr_ptr;");
            w.line("assign full  = (count == DEPTH);");
            w.line("assign empty = (count == 0);");
            w.block("always @(posedge clk) begin", "end", |w| {
                w.block("if (rst) begin", "end else begin", |w| {
                    w.line("count <= 0; rd_ptr <= 0; wr_ptr <= 0;");
                });
                w.indented(|w| {
                    w.block("if (pop && !empty) begin", "end", |w| {
                        w.line("dout   <= mem[rd_ptr];");
                        w.line("rd_ptr <= (rd_ptr == DEPTH-1) ? 0 : rd_ptr + 1;");
                    });
                    w.block("if (push && (!full || pop)) begin", "end", |w| {
                        w.line("mem[wr_ptr] <= din;");
                        w.line("wr_ptr <= (wr_ptr == DEPTH-1) ? 0 : wr_ptr + 1;");
                    });
                    w.line("count <= count + (push && (!full || pop)) - (pop && !empty);");
                });
                w.line("end");
            });
        });
        w.line("endmodule");
        w.finish()
    }

    /// Double-buffered static store with write-through and bank swap.
    fn static_buffer(&self) -> String {
        let mut w = CodeWriter::new();
        self.header(
            &mut w,
            "Double-buffered static buffer (write-through, bank swap)",
        );
        w.line("module static_buffer #(parameter DEPTH = 16, parameter WIDTH = 32, parameter AW = 4) (");
        w.indented(|w| {
            w.line("input  wire             clk,");
            w.line("input  wire             rst,");
            w.line("input  wire             swap,        // end of work-instance");
            w.line("input  wire             rd_en,       // FSM-2 pre-issued read");
            w.line("input  wire [AW-1:0]    rd_slot,");
            w.line("input  wire             wt_en,       // FSM-3 write-through (shadow)");
            w.line("input  wire [AW-1:0]    wt_slot,");
            w.line("input  wire [WIDTH-1:0] wt_data,");
            w.line("input  wire             pf_en,       // FSM-1 warm-up prefetch (active)");
            w.line("input  wire [AW-1:0]    pf_slot,");
            w.line("input  wire [WIDTH-1:0] pf_data,");
            w.line("output reg  [WIDTH-1:0] dout");
        });
        w.line(");");
        w.indented(|w| {
            w.line("reg bank; // which bank is active");
            w.line("reg [WIDTH-1:0] mem0 [0:DEPTH-1];");
            w.line("reg [WIDTH-1:0] mem1 [0:DEPTH-1];");
            w.block("always @(posedge clk) begin", "end", |w| {
                w.line("if (rst) bank <= 1'b0;");
                w.line("else if (swap) bank <= ~bank;");
                w.line("// active-bank read (registered output)");
                w.line("if (rd_en) dout <= bank ? mem1[rd_slot] : mem0[rd_slot];");
                w.line("// shadow-bank write-through");
                w.block("if (wt_en) begin", "end", |w| {
                    w.line("if (bank) mem0[wt_slot] <= wt_data;");
                    w.line("else      mem1[wt_slot] <= wt_data;");
                });
                w.line("// warm-up prefetch into the active bank");
                w.block("if (pf_en) begin", "end", |w| {
                    w.line("if (bank) mem1[pf_slot] <= pf_data;");
                    w.line("else      mem0[pf_slot] <= pf_data;");
                });
            });
        });
        w.line("endmodule");
        w.finish()
    }

    /// The stream buffer with the plan's exact segmentation.
    fn stream_buffer(&self) -> String {
        let width = self.w();
        let mut w = CodeWriter::new();
        self.header(
            &mut w,
            "Stream buffer: tapped delay line (hybrid segmentation)",
        );
        w.line("module stream_buffer (");
        w.indented(|w| {
            w.line("input  wire             clk,");
            w.line("input  wire             rst,");
            w.line("input  wire             shift,");
            w.line(&format!("input  wire [{}:0]      din,", width - 1));
            for &tap in &self.plan.taps {
                w.line(&format!("output wire [{}:0]      tap_{tap},", width - 1));
            }
            w.line(&format!("output wire [{}:0]      centre", width - 1));
        });
        w.line(");");
        w.indented(|w| {
            // Declare one net per register position and instantiate FIFOs
            // for the stretches.
            let segments = self.plan.segments();
            for seg in &segments {
                match seg {
                    Segment::Regs { first, len } => {
                        for p in *first..first + len {
                            w.line(&format!("reg [{}:0] pos_{p};", width - 1));
                        }
                    }
                    Segment::Stretch { first, len } => {
                        let last = first + len - 1;
                        w.line(&format!(
                            "reg  [{}:0] pos_{first};  // stretch input staging",
                            width - 1
                        ));
                        w.line(&format!(
                            "wire [{}:0] pos_{last}; // stretch output (FIFO registered dout)",
                            width - 1
                        ));
                    }
                }
            }
            w.blank();
            // Shift network.
            w.block("always @(posedge clk) if (shift) begin", "end", |w| {
                let mut prev: Option<String> = None;
                for seg in &segments {
                    match seg {
                        Segment::Regs { first, len } => {
                            for p in *first..first + len {
                                let src = match &prev {
                                    None => "din".to_string(),
                                    Some(s) => s.clone(),
                                };
                                w.line(&format!("pos_{p} <= {src};"));
                                prev = Some(format!("pos_{p}"));
                            }
                        }
                        Segment::Stretch { first, len } => {
                            let last = first + len - 1;
                            let src = prev.clone().expect("stretch never first");
                            w.line(&format!("pos_{first} <= {src};"));
                            prev = Some(format!("pos_{last}"));
                        }
                    }
                }
            });
            w.blank();
            // FIFO instances for stretches.
            for seg in &segments {
                if let Segment::Stretch { first, len } = seg {
                    let depth = len - 2;
                    let aw = (usize::BITS - (depth.max(2) - 1).leading_zeros()).max(1);
                    let last = first + len - 1;
                    // The FIFO acts as a primed delay line: pop only once
                    // full, so the stretch's latency equals its length.
                    w.line(&format!("wire fifo_{first}_full;"));
                    w.line(&format!(
                        "bram_fifo #(.DEPTH({depth}), .WIDTH({width}), .AW({aw})) fifo_{first} ("
                    ));
                    w.indented(|w| {
                        w.line(".clk(clk), .rst(rst),");
                        w.line(&format!(
                            ".push(shift), .pop(shift && fifo_{first}_full), .din(pos_{first}),"
                        ));
                        w.line(&format!(
                            ".dout(pos_{last}), .full(fifo_{first}_full), .empty()"
                        ));
                    });
                    w.line(");");
                }
            }
            w.blank();
            for &tap in &self.plan.taps {
                w.line(&format!("assign tap_{tap} = pos_{tap};"));
            }
            w.line(&format!("assign centre = pos_{};", self.plan.centre_pos()));
        });
        w.line("endmodule");
        w.finish()
    }

    /// The per-case gather multiplexer generated from the range decisions.
    fn gather_unit(&self) -> CoreResult<String> {
        let width = self.w();
        let ib = self.idx_bits();
        let shape_len = self.plan.shape.len();
        let mut w = CodeWriter::new();
        self.header(&mut w, "Gather unit: per-range tuple source selection");
        w.line("module gather_unit (");
        w.indented(|w| {
            w.line(&format!("input  wire [{}:0] elem,", ib - 1));
            for &tap in &self.plan.taps {
                w.line(&format!("input  wire [{}:0] tap_{tap},", width - 1));
            }
            for b in &self.plan.static_buffers {
                w.line(&format!(
                    "input  wire [{}:0] static_{}_dout,",
                    width - 1,
                    b.id
                ));
            }
            for p in 0..shape_len {
                w.line(&format!("output reg  [{}:0] val_{p},", width - 1));
            }
            w.line(&format!("output reg  [{}:0] valid_mask", shape_len - 1));
        });
        w.line(");");
        // Resolve one representative element per decision range up front
        // (within an exact range every element resolves identically).
        let mut branches: Vec<(String, Vec<Option<String>>)> = Vec::new();
        let mut scratch = Vec::new();
        for d in self.plan.decisions.iter() {
            let lo = d.range.start;
            let hi = d.range.end() - 1;
            let cond = if lo == hi {
                format!("elem == {ib}'d{lo}")
            } else {
                format!("elem >= {ib}'d{lo} && elem <= {ib}'d{hi}")
            };
            self.plan.sources_for(lo, &mut scratch)?;
            // Positional: `None` (a boundary-skipped point) leaves val_p at
            // zero and its valid_mask bit clear.
            let reps: Vec<Option<String>> = scratch
                .iter()
                .map(|s| {
                    s.as_ref().map(|s| match s {
                        SourceRef::Tap { pos } => format!("tap_{pos}"),
                        SourceRef::Static { buffer, .. } => format!("static_{buffer}_dout"),
                        SourceRef::Constant(v) => format!("{width}'d{v}"),
                    })
                })
                .collect();
            branches.push((cond, reps));
        }
        w.indented(|w| {
            w.block("always @* begin", "end", |w| {
                w.line(&format!("valid_mask = {shape_len}'d0;"));
                for p in 0..shape_len {
                    w.line(&format!("val_{p} = {width}'d0;"));
                }
                for (i, (cond, reps)) in branches.iter().enumerate() {
                    let kw = if i == 0 { "if" } else { "else if" };
                    w.block(&format!("{kw} ({cond}) begin"), "end", |w| {
                        for (p, rep) in reps.iter().enumerate() {
                            if let Some(rep) = rep {
                                w.line(&format!("val_{p} = {rep};"));
                                w.line(&format!("valid_mask[{p}] = 1'b1;"));
                            }
                        }
                    });
                }
            });
        });
        w.line("endmodule");
        Ok(w.finish())
    }

    /// Averaging kernel: masked sum / popcount.
    fn kernel_avg(&self) -> String {
        let width = self.w();
        let shape_len = self.plan.shape.len();
        let mut w = CodeWriter::new();
        self.header(&mut w, "Averaging kernel (masked integer mean)");
        w.line("module kernel_avg (");
        w.indented(|w| {
            w.line("input  wire             clk,");
            w.line("input  wire             en,");
            for p in 0..shape_len {
                w.line(&format!("input  wire [{}:0] val_{p},", width - 1));
            }
            w.line(&format!("input  wire [{}:0] valid_mask,", shape_len - 1));
            w.line(&format!("output reg  [{}:0] result,", width - 1));
            w.line("output reg              result_valid");
        });
        w.line(");");
        w.indented(|w| {
            w.line(&format!("reg [{}:0] sum_q;", width + 3));
            w.line("reg [3:0] count_q;");
            w.line("reg en_q;");
            let terms: Vec<String> = (0..shape_len)
                .map(|p| format!("(valid_mask[{p}] ? val_{p} : {width}'d0)"))
                .collect();
            let counts: Vec<String> = (0..shape_len).map(|p| format!("valid_mask[{p}]")).collect();
            w.block("always @(posedge clk) begin", "end", |w| {
                w.line("// stage 1: masked adder tree + popcount");
                w.line(&format!("sum_q   <= {};", terms.join(" + ")));
                w.line(&format!("count_q <= {};", counts.join(" + ")));
                w.line("en_q    <= en;");
                w.line("// stage 2: normalise");
                w.line("result  <= (count_q == 0) ? 0 : sum_q / count_q;");
                w.line("result_valid <= en_q;");
            });
        });
        w.line("endmodule");
        w.finish()
    }

    /// The three FSMs.
    fn controller(&self) -> String {
        let ib = self.idx_bits();
        let n = self.plan.grid.len();
        let lookahead = self.plan.lookahead;
        let prefetch_total: usize = self.plan.static_buffers.iter().map(|b| b.len).sum();
        let mut w = CodeWriter::new();
        self.header(
            &mut w,
            "Smache controller: FSM-1 prefetch, FSM-2 gather/emit, FSM-3 capture",
        );
        w.line("module smache_ctrl (");
        w.indented(|w| {
            w.line("input  wire          clk,");
            w.line("input  wire          rst,");
            w.line("input  wire          stall,");
            w.line("input  wire          in_valid,     // DRAM stream beat");
            w.line("output wire          in_ready,");
            w.line("output reg           shift,");
            w.line(&format!("output reg  [{}:0]   emit_elem,", ib - 1));
            w.line("output reg           emit_valid,");
            w.line("output reg           prefetching,");
            w.line(&format!(
                "output reg  [{}:0]   prefetch_cnt,",
                ib.max(2) - 1
            ));
            w.line("output reg           swap");
        });
        w.line(");");
        w.indented(|w| {
            w.line("localparam S_WARMUP = 2'd0, S_STREAM = 2'd1, S_SWAP = 2'd2;");
            w.line("reg [1:0] state;");
            w.line(&format!("reg [{}:0] pushed;", ib));
            w.line(&format!("reg [{}:0] next_emit;", ib - 1));
            w.line("assign in_ready = !stall && (state != S_SWAP);");
            w.block("always @(posedge clk) begin", "end", |w| {
                w.block("if (rst) begin", "end else if (!stall) begin", |w| {
                    w.line(&format!(
                        "state <= {};",
                        if prefetch_total > 0 { "S_WARMUP" } else { "S_STREAM" }
                    ));
                    w.line("pushed <= 0; next_emit <= 0; prefetch_cnt <= 0;");
                    w.line("shift <= 0; emit_valid <= 0; swap <= 0; prefetching <= 0; emit_elem <= 0;");
                });
                w.indented(|w| {
                    w.line("shift <= 0; emit_valid <= 0; swap <= 0;");
                    w.block("case (state)", "endcase", |w| {
                        w.block("S_WARMUP: begin", "end", |w| {
                            w.line("prefetching <= 1'b1;");
                            w.block("if (in_valid) begin", "end", |w| {
                                w.line("prefetch_cnt <= prefetch_cnt + 1;");
                                w.line(&format!(
                                    "if (prefetch_cnt == {prefetch_total} - 1) begin state <= S_STREAM; prefetching <= 1'b0; end"
                                ));
                            });
                        });
                        w.block("S_STREAM: begin", "end", |w| {
                            w.line(&format!(
                                "// shift while real or flush words remain (N + A + 1 = {})",
                                n + lookahead + 1
                            ));
                            w.block(
                                &format!("if (pushed < {} && (in_valid || pushed >= {n})) begin", n + lookahead + 1),
                                "end",
                                |w| {
                                    w.line("shift <= 1'b1;");
                                    w.line("pushed <= pushed + 1;");
                                },
                            );
                            w.block(
                                &format!("if (next_emit < {n} && pushed >= next_emit + {}) begin", lookahead + 2),
                                "end",
                                |w| {
                                    w.line("emit_valid <= 1'b1;");
                                    w.line(&format!("emit_elem <= next_emit[{}:0];", ib - 1));
                                    w.line("next_emit <= next_emit + 1;");
                                },
                            );
                            w.line(&format!(
                                "if (next_emit == {n}) state <= S_SWAP;"
                            ));
                        });
                        w.block("S_SWAP: begin", "end", |w| {
                            w.line("swap <= 1'b1;");
                            w.line("pushed <= 0; next_emit <= 0;");
                            w.line("state <= S_STREAM;");
                        });
                        w.line("default: state <= S_STREAM;");
                    });
                });
                w.line("end");
            });
        });
        w.line("endmodule");
        w.finish()
    }

    /// The top level wiring everything together.
    fn top(&self) -> String {
        let width = self.w();
        let ib = self.idx_bits();
        let mut w = CodeWriter::new();
        self.header(&mut w, "Smache top level (Fig. 1(b) of the paper)");
        w.line("module smache_top (");
        w.indented(|w| {
            w.line("input  wire             clk,");
            w.line("input  wire             rst,");
            w.line("input  wire             stall,");
            w.line(&format!("input  wire [{}:0]      s_axis_tdata,", width - 1));
            w.line("input  wire             s_axis_tvalid,");
            w.line("output wire             s_axis_tready,");
            w.line(&format!("output wire [{}:0]      m_axis_tdata,", width - 1));
            w.line("output wire             m_axis_tvalid,");
            w.line(&format!("output wire [{}:0]      m_axis_tindex", ib - 1));
        });
        w.line(");");
        w.indented(|w| {
            let shape_len = self.plan.shape.len();
            w.line("wire shift, emit_valid, swap, prefetching;");
            w.line(&format!("wire [{}:0] emit_elem;", ib - 1));
            w.line(&format!("wire [{}:0] prefetch_cnt;", ib.max(2) - 1));
            for &tap in &self.plan.taps {
                w.line(&format!("wire [{}:0] tap_{tap};", width - 1));
            }
            w.line(&format!("wire [{}:0] centre;", width - 1));
            for b in &self.plan.static_buffers {
                w.line(&format!("wire [{}:0] static_{}_dout;", width - 1, b.id));
            }
            for p in 0..shape_len {
                w.line(&format!("wire [{}:0] val_{p};", width - 1));
            }
            w.line(&format!("wire [{}:0] valid_mask;", shape_len - 1));
            w.blank();
            w.line("smache_ctrl ctrl (");
            w.indented(|w| {
                w.line(".clk(clk), .rst(rst), .stall(stall),");
                w.line(".in_valid(s_axis_tvalid), .in_ready(s_axis_tready),");
                w.line(".shift(shift), .emit_elem(emit_elem), .emit_valid(emit_valid),");
                w.line(".prefetching(prefetching), .prefetch_cnt(prefetch_cnt), .swap(swap)");
            });
            w.line(");");
            w.blank();
            w.line("stream_buffer sm (");
            w.indented(|w| {
                w.line(".clk(clk), .rst(rst), .shift(shift), .din(s_axis_tdata),");
                for &tap in &self.plan.taps {
                    w.line(&format!(".tap_{tap}(tap_{tap}),"));
                }
                w.line(".centre(centre)");
            });
            w.line(");");
            w.blank();
            // Static buffer instances: FSM-1 routes the prefetch stream,
            // FSM-3 captures results whose element index falls in the
            // buffer's region.
            let mut pf_base = 0usize;
            for b in &self.plan.static_buffers {
                let aw = (usize::BITS - (b.len.max(2) - 1).leading_zeros()).max(1);
                let lo = b.region_start;
                let hi = b.region_start + b.len - 1;
                w.line(&format!(
                    "static_buffer #(.DEPTH({}), .WIDTH({width}), .AW({aw})) sb_{} (",
                    b.len, b.id
                ));
                w.indented(|w| {
                    w.line(".clk(clk), .rst(rst), .swap(swap),");
                    w.line(&format!(
                        ".rd_en(1'b1), .rd_slot(emit_elem - {ib}'d{}),",
                        b.range_start
                    ));
                    w.line(&format!(
                        ".wt_en(m_axis_tvalid && m_axis_tindex >= {ib}'d{lo} && m_axis_tindex <= {ib}'d{hi}),"
                    ));
                    w.line(&format!(".wt_slot(m_axis_tindex - {ib}'d{lo}),"));
                    w.line(".wt_data(m_axis_tdata),");
                    w.line(&format!(
                        ".pf_en(prefetching && s_axis_tvalid && prefetch_cnt >= {pf_base} && prefetch_cnt < {}),",
                        pf_base + b.len
                    ));
                    w.line(&format!(".pf_slot(prefetch_cnt - {}'d{pf_base}),", ib.max(2)));
                    w.line(".pf_data(s_axis_tdata),");
                    w.line(&format!(".dout(static_{}_dout)", b.id));
                });
                w.line(");");
                pf_base += b.len;
            }
            w.blank();
            w.line("gather_unit gather (");
            w.indented(|w| {
                w.line(".elem(emit_elem),");
                for &tap in &self.plan.taps {
                    w.line(&format!(".tap_{tap}(tap_{tap}),"));
                }
                for b in &self.plan.static_buffers {
                    w.line(&format!(".static_{0}_dout(static_{0}_dout),", b.id));
                }
                for p in 0..shape_len {
                    w.line(&format!(".val_{p}(val_{p}),"));
                }
                w.line(".valid_mask(valid_mask)");
            });
            w.line(");");
            w.blank();
            w.line("kernel_avg kernel (");
            w.indented(|w| {
                w.line(".clk(clk), .en(emit_valid),");
                for p in 0..shape_len {
                    w.line(&format!(".val_{p}(val_{p}),"));
                }
                w.line(".valid_mask(valid_mask),");
                w.line(".result(m_axis_tdata), .result_valid(m_axis_tvalid)");
            });
            w.line(");");
            w.blank();
            w.line("// Output element index: the kernel's two-stage delay behind emission.");
            w.line(&format!("reg [{}:0] idx_d1, idx_d2;", ib - 1));
            w.line("always @(posedge clk) begin idx_d1 <= emit_elem; idx_d2 <= idx_d1; end");
            w.line("assign m_axis_tindex = idx_d2;");
        });
        w.line("endmodule");
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::lint_verilog;
    use smache::SmacheBuilder;
    use smache_stencil::GridSpec;

    fn paper_design() -> VerilogDesign {
        let plan = SmacheBuilder::new(GridSpec::d2(11, 11).unwrap())
            .plan()
            .unwrap();
        VerilogGen::new(&plan).generate().unwrap()
    }

    #[test]
    fn generates_all_expected_files() {
        let d = paper_design();
        let names: Vec<&str> = d.files.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "bram_fifo.v",
                "static_buffer.v",
                "stream_buffer.v",
                "gather_unit.v",
                "kernel_avg.v",
                "smache_ctrl.v",
                "smache_top.v"
            ]
        );
    }

    #[test]
    fn every_file_lints_clean() {
        let d = paper_design();
        for (name, src) in &d.files {
            let issues = lint_verilog(src);
            assert!(issues.is_empty(), "{name}: {issues:?}\n{src}");
        }
        assert!(lint_verilog(&d.single_unit()).is_empty());
    }

    #[test]
    fn stream_buffer_reflects_plan_segmentation() {
        let d = paper_design();
        let sm = d.file("stream_buffer.v").unwrap();
        // Taps of the 11×11 plan.
        for tap in [1, 11, 13, 23] {
            assert!(sm.contains(&format!("tap_{tap}")), "missing tap {tap}");
        }
        // Two depth-7 FIFO stretches.
        assert_eq!(sm.matches(".DEPTH(7)").count(), 2, "{sm}");
        assert!(sm.contains("assign centre = pos_12;"));
    }

    #[test]
    fn gather_unit_covers_every_range() {
        let plan = SmacheBuilder::new(GridSpec::d2(11, 11).unwrap())
            .plan()
            .unwrap();
        let d = VerilogGen::new(&plan).generate().unwrap();
        let g = d.file("gather_unit.v").unwrap();
        assert_eq!(g.matches("begin").count(), plan.decisions.len() + 1);
        assert!(g.contains("static_0_dout"));
        assert!(g.contains("static_1_dout"));
    }

    #[test]
    fn gather_masks_are_positional_at_boundaries() {
        // The NW corner (element 0) skips the west point (shape point 1):
        // its branch must set valid_mask bits 0, 2, 3 and leave bit 1 out.
        let plan = SmacheBuilder::new(GridSpec::d2(11, 11).unwrap())
            .plan()
            .unwrap();
        let d = VerilogGen::new(&plan).generate().unwrap();
        let g = d.file("gather_unit.v").unwrap();
        let corner = g
            .split("elem == 7'd0)")
            .nth(1)
            .expect("corner branch present");
        let branch = &corner[..corner.find("end").expect("branch closes")];
        assert!(branch.contains("valid_mask[0] = 1'b1;"), "{branch}");
        assert!(
            !branch.contains("valid_mask[1]"),
            "west must stay invalid: {branch}"
        );
        assert!(branch.contains("valid_mask[2] = 1'b1;"));
        assert!(branch.contains("valid_mask[3] = 1'b1;"));
    }

    #[test]
    fn top_instantiates_static_buffers_with_regions() {
        let d = paper_design();
        let top = d.file("smache_top.v").unwrap();
        assert!(top.contains("sb_0"));
        assert!(top.contains("sb_1"));
        assert!(top.contains(".DEPTH(11)"));
        assert!(top.contains("s_axis_tvalid"));
        assert!(top.contains("m_axis_tvalid"));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = paper_design().single_unit();
        let b = paper_design().single_unit();
        assert_eq!(a, b);
    }

    #[test]
    fn case_r_plan_generates_without_fifos() {
        use smache::HybridMode;
        let plan = SmacheBuilder::new(GridSpec::d2(11, 11).unwrap())
            .hybrid(HybridMode::CaseR)
            .plan()
            .unwrap();
        let d = VerilogGen::new(&plan).generate().unwrap();
        let sm = d.file("stream_buffer.v").unwrap();
        assert!(
            !sm.contains("bram_fifo #("),
            "Case-R must not instantiate FIFOs"
        );
        for (name, src) in &d.files {
            assert!(lint_verilog(src).is_empty(), "{name} lints dirty");
        }
    }

    #[test]
    fn write_to_dir_roundtrip() {
        let d = paper_design();
        let dir = std::env::temp_dir().join("smache_codegen_test");
        d.write_to_dir(&dir).unwrap();
        let top = std::fs::read_to_string(dir.join("smache_top.v")).unwrap();
        assert_eq!(top, d.file("smache_top.v").unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }
}

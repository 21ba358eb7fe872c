//! The accelerated HD-computing kernels: program generation for the
//! simulated PULP cluster.
//!
//! [`build_chain`] emits the paper's complete processing chain as one
//! SPMD program (all cores run it; work is split by `coreid`):
//!
//! 1. **MAP** — quantize the `N × channels` ADC codes to CIM level
//!    indices (`(code·(L−1) + 2¹⁵) >> 16`, the same integer arithmetic as
//!    the golden model).
//! 2. **Spatial encoder** — for every sample, bind each channel's IM row
//!    to its level's CIM row (XOR) and take the componentwise majority,
//!    tile by tile; with [`MemPolicy::DmaDoubleBuffer`] the CIM/IM tiles
//!    stream from L2 into alternating L1 buffers while cores compute.
//! 3. **Temporal encoder** — XOR the rotated spatial hypervectors into
//!    the N-gram query (skipped for N = 1, where the spatial hypervector
//!    *is* the query).
//! 4. **Associative memory** — Hamming distance of the query against
//!    every class prototype, word-parallel across cores with per-core
//!    partial distances, reduced and arg-min'ed by core 0.
//!
//! Two lowerings reproduce the paper's ISA comparison:
//!
//! * [`IsaVariant::Generic`] — portable code: the majority extracts bits
//!   with shift/mask in a rolled loop and the AM uses a SWAR popcount,
//!   mirroring what a compiler emits from ANSI C (runs on PULPv3, M4,
//!   and Wolf).
//! * [`IsaVariant::Builtin`] — the hand-optimized XpulpV2 version of the
//!   paper's Fig. 2: `p.extractu`/`p.insert` bit packing, `p.cnt`
//!   popcount, post-increment loads, and hardware loops (Wolf only).
//!
//! Region markers: `0` → start of MAP+ENCODERS, `1` → start of AM,
//! `2` → end. `RunSummary::region(0, 1)` is the paper's "MAP+ENCODERS"
//! row, `region(1, 2)` the "AM" row.
//!
//! Register conventions (documented invariants of the generated code):
//! `s0` = core id, `s1` = core count, `s2` = in-flight DMA id (core 0),
//! `s3`/`s4` = this core's word-chunk start/count for the current tile.
//! Subroutines clobber `t*`/`a*` and `s5`–`s11` but preserve `s0`–`s4`.

use pulp_sim::asm::{AsmError, Assembler, Program};
use pulp_sim::isa::regs::*;
use pulp_sim::isa::Reg;

use crate::layout::{AccelParams, Layout, MemPolicy};

/// Which lowering of the kernels to emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsaVariant {
    /// Portable RV32IM-style code (compiler-faithful rolled loops).
    Generic,
    /// XpulpV2 bit-manipulation builtins + hardware loops (Wolf).
    Builtin,
}

/// Why a chain program could not be generated.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildError {
    /// The accelerated path supports N-grams up to 10 (register budget of
    /// the temporal kernel); the `hdc` library itself has no such limit.
    NgramTooLarge(usize),
    /// Assembly-level failure (a bug in the generator).
    Asm(AsmError),
}

impl core::fmt::Display for BuildError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::NgramTooLarge(n) => {
                write!(f, "accelerated path supports n-gram sizes 1..=10, got {n}")
            }
            Self::Asm(e) => write!(f, "assembly error: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<AsmError> for BuildError {
    fn from(e: AsmError) -> Self {
        Self::Asm(e)
    }
}

/// Maximum N-gram size of the accelerated temporal kernel.
pub const MAX_ACCEL_NGRAM: usize = 10;

/// Channel count up to which bound words are kept in registers during
/// the majority vote; beyond this the per-core L1 scratch path is used.
const REG_MAJORITY_MAX_CHANNELS: usize = 5;

struct Gen<'a> {
    a: Assembler,
    p: AccelParams,
    lay: &'a Layout,
    variant: IsaVariant,
    n_cores: usize,
    seq: usize,
}

/// Generates the full processing-chain program.
///
/// # Errors
///
/// Returns [`BuildError`] for unsupported parameters or on internal
/// assembly errors.
pub fn build_chain(
    layout: &Layout,
    variant: IsaVariant,
    n_cores: usize,
) -> Result<Program, BuildError> {
    let p = layout.params;
    if p.ngram > MAX_ACCEL_NGRAM {
        return Err(BuildError::NgramTooLarge(p.ngram));
    }
    let mut g = Gen {
        a: Assembler::new(),
        p,
        lay: layout,
        variant,
        n_cores,
        seq: 0,
    };
    g.emit_all()?;
    Ok(g.a.finish()?)
}

impl Gen<'_> {
    fn label(&mut self, stem: &str) -> String {
        self.seq += 1;
        format!("{stem}_{}", self.seq)
    }

    fn builtin(&self) -> bool {
        self.variant == IsaVariant::Builtin
    }

    fn use_dma(&self) -> bool {
        self.lay.policy == MemPolicy::DmaDoubleBuffer
    }

    /// Row pitch (bytes) of matrix rows as the kernels see them: tile
    /// pitch for the DMA policy, full matrix pitch otherwise.
    fn pitch(&self) -> u32 {
        match self.lay.policy {
            MemPolicy::DmaDoubleBuffer => self.lay.tile_words as u32 * 4,
            _ => self.p.n_words as u32 * 4,
        }
    }

    /// Number of majority inputs (bound hypervectors, plus the tie-break
    /// vector when the channel count is even).
    fn majority_inputs(&self) -> usize {
        if self.p.channels.is_multiple_of(2) {
            self.p.channels + 1
        } else {
            self.p.channels
        }
    }

    /// Majority threshold: a component is 1 iff at least `TH` inputs are.
    fn majority_threshold(&self) -> i32 {
        (self.majority_inputs() / 2 + 1) as i32
    }

    fn emit_all(&mut self) -> Result<(), BuildError> {
        let end = self.label("chain_end");

        self.a
            .comment("chain entry: identify core, pay parallel-region cost");
        self.a.coreid(S0);
        self.a.numcores(S1);
        self.a.fork();
        self.a.marker(0);

        self.emit_map();
        self.a.barrier();

        self.emit_spatial_phase();

        if self.p.ngram > 1 {
            self.emit_temporal_phase();
        }
        self.a.barrier();
        self.a.marker(1);

        self.emit_am_phase();
        self.a.marker(2);
        self.a.j(&end);

        // Subroutines live past the end of the main flow.
        self.emit_spatial_words_sub();
        self.emit_am_words_sub();
        if self.p.ngram > 1 {
            self.emit_temporal_words_sub();
        }

        self.a.label(&end);
        self.a.halt();
        Ok(())
    }

    // ------------------------------------------------------------------
    // MAP: quantize samples to level indices, strided across cores.
    // ------------------------------------------------------------------
    fn emit_map(&mut self) {
        let items = (self.p.ngram * self.p.channels) as u32;
        let loop_top = self.label("map_loop");
        let done = self.label("map_done");
        self.a
            .comment("MAP: level[i] = (code[i]*(L-1) + 0x8000) >> 16");
        self.a.mv(T0, S0); // idx = core id, strided by n_cores
        self.a.li(T1, items);
        self.a.li(T2, self.p.levels as u32 - 1);
        self.a.li(T3, 0x8000);
        self.a.li(A0, self.lay.samples);
        self.a.li(A1, self.lay.levels);
        self.a.label(&loop_top);
        self.a.bge(T0, T1, &done);
        self.a.slli(T4, T0, 1);
        self.a.add(T4, T4, A0);
        self.a.lhu(T5, T4, 0);
        self.a.mul(T5, T5, T2);
        self.a.add(T5, T5, T3);
        self.a.srli(T5, T5, 16);
        self.a.slli(T4, T0, 2);
        self.a.add(T4, T4, A1);
        self.a.sw(T5, T4, 0);
        self.a.addi(T0, T0, self.n_cores as i32);
        self.a.j(&loop_top);
        self.a.label(&done);
    }

    // ------------------------------------------------------------------
    // DMA helpers (core 0 only; caller brackets with coreid checks).
    // ------------------------------------------------------------------

    /// Writes a 2-D descriptor and starts it; transfer id lands in `id`.
    /// Streams `rows` rows of `width_bytes` from `src` (pitch
    /// `src_pitch`) to `dst` (pitch = tile pitch).
    fn emit_dma_desc(
        &mut self,
        src: u32,
        dst: u32,
        width_bytes: u32,
        src_pitch: u32,
        rows: u32,
        id: Reg,
    ) {
        let d = self.lay.desc;
        self.a.li(A0, d);
        self.a.li(A1, src);
        self.a.sw(A1, A0, 0);
        self.a.li(A1, dst);
        self.a.sw(A1, A0, 4);
        self.a.li(A1, width_bytes);
        self.a.sw(A1, A0, 8);
        self.a.li(A1, src_pitch);
        self.a.sw(A1, A0, 12);
        self.a.li(A1, self.pitch());
        self.a.sw(A1, A0, 16);
        self.a.li(A1, rows);
        self.a.sw(A1, A0, 20);
        self.a.dma_start(id, A0);
    }

    /// Starts the CIM+IM transfers of tile `k` into buffer `sel`;
    /// the id of the *last* transfer (the engine is in-order, so its
    /// completion implies the first's) lands in `S2`.
    fn emit_dma_cim_im_tile(&mut self, k: usize, sel: usize) {
        let (w0, width) = self.lay.tile_extent(k);
        let wb = width as u32 * 4;
        let off = w0 as u32 * 4;
        let full_pitch = self.p.n_words as u32 * 4;
        self.emit_dma_desc(
            self.lay.cim + off,
            self.lay.buf_cim[sel],
            wb,
            full_pitch,
            self.p.levels as u32,
            T6,
        );
        self.emit_dma_desc(
            self.lay.im + off,
            self.lay.buf_im[sel],
            wb,
            full_pitch,
            self.p.channels as u32,
            S2,
        );
    }

    /// Starts the AM transfer of tile `k` into buffer `sel`; id in `S2`.
    fn emit_dma_am_tile(&mut self, k: usize, sel: usize) {
        let (w0, width) = self.lay.tile_extent(k);
        self.emit_dma_desc(
            self.lay.am + w0 as u32 * 4,
            self.lay.buf_am[sel],
            width as u32 * 4,
            self.p.n_words as u32 * 4,
            self.p.classes as u32,
            S2,
        );
    }

    /// Emits `if (core_id != 0) goto skip; …body…; skip:`.
    fn core0_only(&mut self, body: impl FnOnce(&mut Self)) {
        let skip = self.label("not_core0");
        self.a.bnez(S0, &skip);
        body(self);
        self.a.label(&skip);
    }

    // ------------------------------------------------------------------
    // Per-tile word chunking: S3 = my start word, S4 = my word count.
    // ------------------------------------------------------------------
    fn emit_chunk(&mut self, width: usize) {
        let chunk = width.div_ceil(self.n_cores) as u32;
        let ok = self.label("chunk_ok");
        self.a.comment("split tile words across cores");
        self.a.li(T0, chunk);
        self.a.mul(S3, S0, T0); // my start
        self.a.li(T1, width as u32);
        self.a.sub(T2, T1, S3); // remaining (may be ≤ 0)
        self.a.mv(S4, T0);
        self.a.bge(T2, T0, &ok);
        self.a.mv(S4, T2); // count = remaining when short (or ≤ 0)
        self.a.label(&ok);
    }

    // ------------------------------------------------------------------
    // Spatial phase: tiles × samples.
    // ------------------------------------------------------------------
    fn emit_spatial_phase(&mut self) {
        let n_tiles = self.lay.n_tiles;
        if self.use_dma() {
            self.core0_only(|g| {
                g.a.comment("prefetch tile 0 (CIM+IM), wait for it");
                g.emit_dma_cim_im_tile(0, 0);
                g.a.dma_wait(S2);
            });
        }
        self.a.barrier();

        for k in 0..n_tiles {
            let (w0, width) = self.lay.tile_extent(k);
            if self.use_dma() && k + 1 < n_tiles {
                self.core0_only(|g| {
                    g.a.comment("start streaming the next tile while computing");
                    g.emit_dma_cim_im_tile(k + 1, (k + 1) % 2);
                });
            }
            self.emit_chunk(width);
            for t in 0..self.p.ngram {
                // A0 = &spatial[t][w0 + my_start]
                self.a.li(
                    A0,
                    self.lay.spatials + (t * self.p.n_words) as u32 * 4 + w0 as u32 * 4,
                );
                self.a.slli(T0, S3, 2);
                self.a.add(A0, A0, T0);
                self.a.mv(A1, S4);
                // A2/A3 = IM/CIM rows for this tile (+ my word offset).
                let (im_base, cim_base) = match self.lay.policy {
                    MemPolicy::DmaDoubleBuffer => (self.lay.buf_im[k % 2], self.lay.buf_cim[k % 2]),
                    // Direct policies address the matrices themselves.
                    _ => (self.lay.im + w0 as u32 * 4, self.lay.cim + w0 as u32 * 4),
                };
                self.a.li(A2, im_base);
                self.a.add(A2, A2, T0);
                self.a.li(A3, cim_base);
                self.a.add(A3, A3, T0);
                // A4 = &levels[t][0]
                self.a
                    .li(A4, self.lay.levels + (t * self.p.channels) as u32 * 4);
                self.a.call("spatial_words");
            }
            if self.use_dma() && k + 1 < n_tiles {
                self.core0_only(|g| g.a.dma_wait(S2));
            }
            self.a.barrier();
        }
    }

    // ------------------------------------------------------------------
    // Spatial word-loop subroutine.
    //
    // In:  A0 out ptr, A1 word count (≤0 ⇒ nothing), A2 IM base+offset,
    //      A3 CIM base+offset, A4 levels row. Preserves S0–S4.
    // ------------------------------------------------------------------
    fn emit_spatial_words_sub(&mut self) {
        self.a.label("spatial_words");
        let done = self.label("spat_done");
        self.a.bge(ZERO, A1, &done);
        if self.p.channels <= REG_MAJORITY_MAX_CHANNELS {
            self.emit_spatial_words_reg(&done);
        } else {
            self.emit_spatial_words_scratch(&done);
        }
        self.a.label(&done);
        self.a.ret();
    }

    /// Register-resident majority for small channel counts (the paper's
    /// 4-channel EMG case).
    fn emit_spatial_words_reg(&mut self, _done: &str) {
        let c = self.p.channels;
        let n_b = self.majority_inputs();
        let pitch = self.pitch();
        let bounds = [T0, T1, T2, T3, T4];
        let cim_ptrs = [S5, S6, S7, S8, S9];
        let im_ptrs = [S10, S11, A6, A7, T6];
        assert!(c <= 5, "register path handles up to 5 channels");

        self.a.comment("select CIM rows from quantized levels");
        for (ch, &ptr) in cim_ptrs.iter().take(c).enumerate() {
            self.a.lw(T5, A4, ch as i32 * 4);
            self.a.li(A5, pitch);
            self.a.mul(T5, T5, A5);
            self.a.add(ptr, A3, T5);
        }
        self.a.comment("IM row pointers");
        for (ch, &ptr) in im_ptrs.iter().take(c).enumerate() {
            self.a.li(T5, ch as u32 * pitch);
            self.a.add(ptr, A2, T5);
        }
        if !self.builtin() {
            self.a
                .comment("per-core bound[] array (the C code keeps one)");
            self.a.li(T5, self.lay.scratch);
            self.a.li(A5, (self.p.channels as u32 + 1) * 4);
            self.a.mul(A5, S0, A5);
            self.a.add(A4, T5, A5); // A4 = my bound[] base (levels done)
        }

        let word_top = self.label("spat_word");
        if self.builtin() {
            let body_end = self.label("spat_hw_end");
            // The pack register keeps bits ≥ n_b at zero across the whole
            // loop (only slots 0..n_b are ever inserted).
            self.a.li(A2, 0);
            self.a.lp_setup(A1, &word_top, &body_end);
            self.a.label(&word_top);
            self.a.comment("bind: bound[c] = IM[c] ^ CIM[level[c]]");
            for ch in 0..c {
                self.a.lw_post(bounds[ch], cim_ptrs[ch], 4);
                self.a.lw_post(T5, im_ptrs[ch], 4);
                self.a.xor(bounds[ch], bounds[ch], T5);
            }
            if n_b > c {
                self.a.comment("tie-break vector = bound[0] ^ bound[1]");
                self.a.xor(bounds[c], bounds[0], bounds[1]);
            }
            self.a
                .comment("majority via p.extractu / p.insert / p.cnt (Fig. 2)");
            let th = self.majority_threshold();
            for bit in 0..32u8 {
                for (slot, b) in bounds.iter().take(n_b).enumerate() {
                    self.a.p_extractu(A3, *b, 1, bit);
                    self.a.p_insert(A2, A3, 1, slot as u8);
                }
                self.a.p_cnt(A3, A2);
                self.a.sltiu(A3, A3, th);
                self.a.xori(A3, A3, 1);
                self.a.p_insert(A5, A3, 1, bit);
            }
            self.a.sw_post(A5, A0, 4);
            self.a.label(&body_end);
        } else {
            let bit_top = self.label("spat_bit");
            let end = self.label("spat_word_end");
            self.a.label(&word_top);
            self.a.comment("bind: bound[c] = IM[c] ^ CIM[level[c]]");
            for ch in 0..c {
                self.a.lw(bounds[ch], cim_ptrs[ch], 0);
                self.a.lw(T5, im_ptrs[ch], 0);
                self.a.xor(bounds[ch], bounds[ch], T5);
                self.a.addi(cim_ptrs[ch], cim_ptrs[ch], 4);
                self.a.addi(im_ptrs[ch], im_ptrs[ch], 4);
            }
            if n_b > c {
                self.a.xor(bounds[c], bounds[0], bounds[1]);
            }
            self.a.comment("spill bound[] as the compiled C does");
            for (slot, b) in bounds.iter().take(n_b).enumerate() {
                self.a.sw(*b, A4, slot as i32 * 4);
            }
            self.a
                .comment("rolled shift/mask majority over the in-memory array");
            let th = self.majority_threshold();
            self.a.li(A2, 31); // bit index, counting down
            self.a.li(A5, 0); // out word
            self.a.label(&bit_top);
            self.a.li(A3, 0); // vote count
            for slot in 0..n_b {
                self.a.lw(T5, A4, slot as i32 * 4);
                self.a.srl(T5, T5, A2);
                self.a.andi(T5, T5, 1);
                self.a.add(A3, A3, T5);
            }
            self.a.slti(T5, A3, th);
            self.a.xori(T5, T5, 1);
            self.a.sll(T5, T5, A2);
            self.a.or(A5, A5, T5);
            self.a.addi(A2, A2, -1);
            self.a.bge(A2, ZERO, &bit_top);
            self.a.sw(A5, A0, 0);
            self.a.addi(A0, A0, 4);
            self.a.addi(A1, A1, -1);
            self.a.bnez(A1, &word_top);
            self.a.label(&end);
        }
    }

    /// Scratch-array majority for large channel counts (Fig. 5 sweep):
    /// bound words live in per-core L1 scratch, votes are accumulated by
    /// looping over channels per bit.
    fn emit_spatial_words_scratch(&mut self, _done: &str) {
        let c = self.p.channels as u32;
        let n_b = self.majority_inputs() as u32;
        let pitch = self.pitch();
        let th = self.majority_threshold();

        self.a.comment("per-core bound-word scratch");
        self.a.li(T0, self.lay.scratch);
        self.a.li(T1, (self.p.channels as u32 + 1) * 4);
        self.a.mul(T1, S0, T1);
        self.a.add(T6, T0, T1); // T6 = scratch row base (preserved)

        let word_top = self.label("spat_word");
        let bind_top = self.label("spat_bind");
        let word_end = self.label("spat_word_end");

        self.a.label(&word_top);
        // --- bind loop over channels ---
        self.a.mv(A6, A2); // IM walker (row-major: += pitch per channel)
        self.a.mv(A7, A4); // levels walker
        self.a.mv(S5, T6); // scratch walker
        self.a.li(S6, 0); // channel counter
        self.a.li(S7, c);
        self.a.label(&bind_top);
        self.a.lw(T5, A7, 0); // level
        self.a.li(A5, pitch);
        self.a.mul(T5, T5, A5);
        self.a.add(T5, T5, A3); // CIM row + word offset
        self.a.lw(T0, T5, 0);
        self.a.lw(T1, A6, 0);
        self.a.xor(T0, T0, T1);
        self.a.sw(T0, S5, 0);
        self.a.addi(S5, S5, 4);
        self.a.addi(A6, A6, pitch as i32);
        self.a.addi(A7, A7, 4);
        self.a.addi(S6, S6, 1);
        self.a.blt(S6, S7, &bind_top);
        if n_b > c {
            self.a.comment("tie-break = bound[0] ^ bound[1]");
            self.a.lw(T0, T6, 0);
            self.a.lw(T1, T6, 4);
            self.a.xor(T0, T0, T1);
            self.a.sw(T0, S5, 0);
        }
        // --- majority: bits and inputs unrolled, constant offsets into
        // the scratch array (what the compiler does for the fixed-size
        // inner loops of the C code; the builtin variant uses the
        // constant-position p.extractu of Fig. 2) ---
        self.a.li(A5, 0); // out word
        for bit in 0..32u8 {
            self.a.li(S9, 0); // vote count
            for slot in 0..n_b as i32 {
                self.a.lw(T5, T6, slot * 4);
                if self.builtin() {
                    self.a.p_extractu(T5, T5, 1, bit);
                } else {
                    self.a.srli(T5, T5, bit);
                    self.a.andi(T5, T5, 1);
                }
                self.a.add(S9, S9, T5);
            }
            self.a.slti(T5, S9, th);
            self.a.xori(T5, T5, 1);
            if self.builtin() {
                self.a.p_insert(A5, T5, 1, bit);
            } else {
                self.a.slli(T5, T5, bit);
                self.a.or(A5, A5, T5);
            }
        }
        // --- store and advance to the next word ---
        self.a.sw(A5, A0, 0);
        self.a.addi(A0, A0, 4);
        self.a.addi(A2, A2, 4);
        self.a.addi(A3, A3, 4);
        self.a.addi(A1, A1, -1);
        self.a.bnez(A1, &word_top);
        self.a.label(&word_end);
    }

    // ------------------------------------------------------------------
    // Temporal phase (N > 1): query = S₀ ⊕ ρ¹S₁ ⊕ … ⊕ ρᴺ⁻¹Sₙ₋₁,
    // word-parallel across cores, everything resident in L1.
    // ------------------------------------------------------------------
    fn emit_temporal_phase(&mut self) {
        self.a.barrier();
        self.emit_chunk(self.p.n_words);
        self.a
            .comment("temporal encoder: XOR of rotated spatial HVs");
        // A0 = &query[my_start], A1 = count.
        self.a.li(A0, self.lay.query);
        self.a.slli(T0, S3, 2);
        self.a.add(A0, A0, T0);
        self.a.mv(A1, S4);
        self.a.call("temporal_words");
    }

    /// Temporal word-loop subroutine. In: A0 out ptr, A1 count,
    /// S3 = my start word. Preserves S0–S2.
    fn emit_temporal_words_sub(&mut self) {
        let n = self.p.ngram;
        let w = self.p.n_words as u32;
        let sp = self.lay.spatials;
        let row = self.p.n_words as u32 * 4;
        // Pointer registers for spatial rows 1..N−1 and their previous
        // words (rotation carry). T5 stays free as the shared scratch;
        // S2 (the DMA-id register) is dead between the spatial and AM
        // phases and is safely recycled here.
        let ptrs = [S5, S6, S7, S8, S9, S10, S11, A6, A7];
        let prevs = [T0, T1, T2, T3, T4, T6, S3, S4, S2];
        assert!(n - 1 <= ptrs.len(), "checked by MAX_ACCEL_NGRAM");

        self.a.label("temporal_words");
        let done = self.label("tw_done");
        self.a.bge(ZERO, A1, &done);

        // A4 = &spatial[0][my_start]; A2 = wrapped index of my_start−1.
        self.a.slli(A3, S3, 2);
        self.a.li(A4, sp);
        self.a.add(A4, A4, A3);
        let no_wrap = self.label("tw_nowrap");
        self.a.li(A2, (w - 1) * 4);
        self.a.beqz(S3, &no_wrap);
        self.a.addi(A2, A3, -4);
        self.a.label(&no_wrap);

        for k in 1..n {
            // ptr_k = &spatial[k][my_start]; prev_k = spatial[k][start−1].
            self.a.li(T5, sp + k as u32 * row);
            self.a.add(ptrs[k - 1], T5, A3);
            self.a.add(T5, T5, A2);
            self.a.lw(prevs[k - 1], T5, 0);
        }

        let top = self.label("tw_word");
        self.a.label(&top);
        self.a.lw(A5, A4, 0); // acc = spatial[0][w]
        self.a.addi(A4, A4, 4);
        for k in 1..n {
            let sh = k as u8;
            self.a.lw(A3, ptrs[k - 1], 0); // lo = s_k[w]
            self.a.addi(ptrs[k - 1], ptrs[k - 1], 4);
            self.a.slli(A2, A3, sh);
            self.a.srli(T5, prevs[k - 1], 32 - sh);
            self.a.or(A2, A2, T5);
            self.a.xor(A5, A5, A2);
            self.a.mv(prevs[k - 1], A3);
        }
        self.a.sw(A5, A0, 0);
        self.a.addi(A0, A0, 4);
        self.a.addi(A1, A1, -1);
        self.a.bnez(A1, &top);
        self.a.label(&done);
        self.a.ret();
    }

    // ------------------------------------------------------------------
    // AM phase: tiled Hamming search + core-0 reduction.
    // ------------------------------------------------------------------
    fn emit_am_phase(&mut self) {
        let k_classes = self.p.classes;
        self.a.comment("zero my row of the partial-distance array");
        self.a.li(T0, self.lay.partials);
        self.a.li(T1, k_classes as u32 * 4);
        self.a.mul(T1, S0, T1);
        self.a.add(T0, T0, T1);
        for k in 0..k_classes {
            self.a.sw(ZERO, T0, k as i32 * 4);
        }

        if self.use_dma() {
            self.core0_only(|g| {
                g.emit_dma_am_tile(0, 0);
                g.a.dma_wait(S2);
            });
        }
        self.a.barrier();

        if !self.builtin() {
            self.a.comment("SWAR popcount masks");
            self.a.li(S5, 0x5555_5555);
            self.a.li(S6, 0x3333_3333);
            self.a.li(S7, 0x0f0f_0f0f);
            self.a.li(S8, 0x0101_0101);
        }

        for tile in 0..self.lay.n_tiles {
            let (w0, width) = self.lay.tile_extent(tile);
            if self.use_dma() && tile + 1 < self.lay.n_tiles {
                self.core0_only(|g| g.emit_dma_am_tile(tile + 1, (tile + 1) % 2));
            }
            self.emit_chunk(width);
            let am_base = match self.lay.policy {
                MemPolicy::DmaDoubleBuffer => self.lay.buf_am[tile % 2],
                _ => self.lay.am + w0 as u32 * 4,
            };
            // A0 = &query[w0 + my_start], A2 = AM rows + my offset,
            // A3 = &partials[my row].
            self.a.li(A0, self.lay.query + w0 as u32 * 4);
            self.a.slli(T0, S3, 2);
            self.a.add(A0, A0, T0);
            self.a.mv(A1, S4);
            self.a.li(A2, am_base);
            self.a.add(A2, A2, T0);
            self.a.li(A3, self.lay.partials);
            self.a.li(T1, k_classes as u32 * 4);
            self.a.mul(T1, S0, T1);
            self.a.add(A3, A3, T1);
            self.a.call("am_words");
            if self.use_dma() && tile + 1 < self.lay.n_tiles {
                self.core0_only(|g| g.a.dma_wait(S2));
            }
            self.a.barrier();
        }

        self.emit_am_reduce();
        self.a.barrier();
    }

    /// AM word-loop subroutine. In: A0 query ptr, A1 count, A2 AM tile
    /// base + offset, A3 partials row. Preserves S0–S4 (and the SWAR
    /// masks in S5–S8 for the generic variant).
    fn emit_am_words_sub(&mut self) {
        let pitch = self.pitch();
        self.a.label("am_words");
        let done = self.label("amw_done");
        self.a.bge(ZERO, A1, &done);
        for class in 0..self.p.classes {
            let cls_done = self.label("amw_cls_done");
            self.a
                .comment("Hamming distance of my words against one prototype");
            self.a.mv(T0, A0); // query walker
            self.a.li(T1, class as u32 * pitch);
            self.a.add(T1, T1, A2); // prototype walker
            self.a.li(T2, 0); // distance accumulator
            self.a.mv(T3, A1); // word counter
            let top = self.label("amw_word");
            if self.builtin() {
                let end = self.label("amw_hw_end");
                self.a.lp_setup(T3, &top, &end);
                self.a.label(&top);
                self.a.lw_post(T4, T0, 4);
                self.a.lw_post(T5, T1, 4);
                self.a.xor(T4, T4, T5);
                self.a.p_cnt(T4, T4);
                self.a.add(T2, T2, T4);
                self.a.label(&end);
            } else {
                self.a.label(&top);
                self.a.lw(T4, T0, 0);
                self.a.lw(T5, T1, 0);
                self.a.xor(T4, T4, T5);
                self.a.comment("SWAR popcount");
                self.a.srli(T5, T4, 1);
                self.a.and(T5, T5, S5);
                self.a.sub(T4, T4, T5);
                self.a.srli(T5, T4, 2);
                self.a.and(T5, T5, S6);
                self.a.and(T4, T4, S6);
                self.a.add(T4, T4, T5);
                self.a.srli(T5, T4, 4);
                self.a.add(T4, T4, T5);
                self.a.and(T4, T4, S7);
                self.a.mul(T4, T4, S8);
                self.a.srli(T4, T4, 24);
                self.a.add(T2, T2, T4);
                self.a.addi(T0, T0, 4);
                self.a.addi(T1, T1, 4);
                self.a.addi(T3, T3, -1);
                self.a.bnez(T3, &top);
            }
            self.a.comment("accumulate into my partial for this class");
            self.a.lw(T4, A3, class as i32 * 4);
            self.a.add(T4, T4, T2);
            self.a.sw(T4, A3, class as i32 * 4);
            self.a.label(&cls_done);
        }
        self.a.label(&done);
        self.a.ret();
    }

    /// Core-0 reduction: sum per-core partials, arg-min, store the
    /// result block `[best_class, dist_0, …]`.
    fn emit_am_reduce(&mut self) {
        self.core0_only(|g| {
            let kc = g.p.classes;
            g.a.comment("reduce partial distances and pick the nearest class");
            g.a.li(A0, g.lay.partials);
            g.a.li(A1, g.lay.result);
            g.a.li(T0, u32::MAX); // best distance
            g.a.li(T1, 0); // best class
            for k in 0..kc {
                g.a.li(T2, 0);
                for core in 0..g.n_cores {
                    g.a.lw(T3, A0, ((core * kc + k) * 4) as i32);
                    g.a.add(T2, T2, T3);
                }
                g.a.sw(T2, A1, (4 + 4 * k) as i32);
                let skip = g.label("red_skip");
                g.a.bgeu(T2, T0, &skip);
                g.a.mv(T0, T2);
                g.a.li(T1, k as u32);
                g.a.label(&skip);
            }
            g.a.sw(T1, A1, 0);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{AccelParams, Layout, MemPolicy};

    fn plan(params: AccelParams, policy: MemPolicy, cores: usize) -> Layout {
        let (l1, l2) = match policy {
            MemPolicy::AllL1 => (192 * 1024, 512 * 1024),
            _ => (64 * 1024, 4 * 1024 * 1024),
        };
        Layout::plan(params, policy, cores, l1, l2).unwrap()
    }

    #[test]
    fn builds_for_all_policies_and_variants() {
        let p = AccelParams::emg_default();
        for policy in [MemPolicy::DmaDoubleBuffer, MemPolicy::L2Direct] {
            for variant in [IsaVariant::Generic, IsaVariant::Builtin] {
                for cores in [1, 4, 8] {
                    let lay = plan(p, policy, cores);
                    let prog = build_chain(&lay, variant, cores).unwrap();
                    assert!(prog.len() > 100, "suspiciously small program");
                }
            }
        }
        let lay = plan(p, MemPolicy::AllL1, 1);
        build_chain(&lay, IsaVariant::Generic, 1).unwrap();
    }

    #[test]
    fn builds_for_large_channel_counts_and_ngrams() {
        for channels in [6, 32, 256] {
            for ngram in [1, 3, 10] {
                let p = AccelParams {
                    channels,
                    ngram,
                    ..AccelParams::emg_default()
                };
                let lay = plan(p, MemPolicy::DmaDoubleBuffer, 8);
                build_chain(&lay, IsaVariant::Builtin, 8).unwrap();
                build_chain(&lay, IsaVariant::Generic, 8).unwrap();
            }
        }
    }

    #[test]
    fn oversized_ngram_rejected() {
        let p = AccelParams {
            ngram: 11,
            ..AccelParams::emg_default()
        };
        // Layout itself allows it; the accelerated builder refuses.
        let lay = plan(p, MemPolicy::DmaDoubleBuffer, 4);
        assert!(matches!(
            build_chain(&lay, IsaVariant::Generic, 4),
            Err(BuildError::NgramTooLarge(11))
        ));
    }

    #[test]
    fn generic_variant_avoids_extension_instructions() {
        let p = AccelParams::emg_default();
        let lay = plan(p, MemPolicy::DmaDoubleBuffer, 4);
        let prog = build_chain(&lay, IsaVariant::Generic, 4).unwrap();
        for inst in prog.insts() {
            assert!(
                !inst.needs_bitmanip() && !inst.needs_post_increment() && !inst.needs_hw_loops(),
                "generic program contains extension instruction {inst}"
            );
        }
    }

    #[test]
    fn builtin_variant_uses_the_extensions() {
        let p = AccelParams::emg_default();
        let lay = plan(p, MemPolicy::DmaDoubleBuffer, 8);
        let prog = build_chain(&lay, IsaVariant::Builtin, 8).unwrap();
        assert!(prog.insts().iter().any(|i| i.needs_bitmanip()));
        assert!(prog.insts().iter().any(|i| i.needs_post_increment()));
        assert!(prog.insts().iter().any(|i| i.needs_hw_loops()));
    }

    #[test]
    fn listing_mentions_all_kernels() {
        let p = AccelParams {
            ngram: 3,
            ..AccelParams::emg_default()
        };
        let lay = plan(p, MemPolicy::DmaDoubleBuffer, 4);
        let prog = build_chain(&lay, IsaVariant::Generic, 4).unwrap();
        let listing = prog.listing();
        for name in ["spatial_words", "am_words", "temporal_words", "MAP"] {
            assert!(listing.contains(name), "listing missing {name}");
        }
    }
}

//! Hostile CFG shapes: irreducible loops and conservative indirect-`jalr`
//! edges. Shared by `hostile_cfg.rs` and the alias fact-table test in
//! `src/alias.rs`.

/// A classic irreducible region: two loop bodies branching into each
/// other's middles, entered from both sides.
pub const IRREDUCIBLE: &str = "main:
 li a0, 10
 li a1, 0
 beq a0, zero, right
left:
 addi a1, a1, 1
 addi a0, a0, -1
 bne a0, zero, right
 j done
right:
 addi a1, a1, 2
 addi a0, a0, -1
 bne a0, zero, left
done:
 out a1
 halt
";

/// [`IRREDUCIBLE`]'s shape, but `left` reads `a2`, which is never
/// written anywhere.
pub const IRREDUCIBLE_UNINIT_READ: &str = "main:
 li a0, 10
 beq a0, zero, right
left:
 add a1, a2, a2
 addi a0, a0, -1
 bne a0, zero, right
 j done
right:
 addi a0, a0, -1
 bne a0, zero, left
done:
 out a0
 halt
";

/// `helper` is reached only through a computed `jalr`.
pub const JALR_ONLY_FUNCTION: &str = "main:
 la t0, helper
 jalr ra, t0, 0
 out a0
 halt
helper:
 li a0, 5
 jalr zero, ra, 0
";

/// Mutually recursive calls whose returns are all conservative `jalr`
/// edges.
pub const MUTUAL_RECURSION: &str = "main:
 li a0, 3
 jal ra, even
 out a0
 halt
even:
 addi sp, sp, -16
 sd ra, 8(sp)
 beq a0, zero, even_done
 addi a0, a0, -1
 jal ra, odd
even_done:
 ld ra, 8(sp)
 addi sp, sp, 16
 jalr zero, ra, 0
odd:
 addi sp, sp, -16
 sd ra, 8(sp)
 addi a0, a0, -1
 jal ra, even
 ld ra, 8(sp)
 addi sp, sp, 16
 jalr zero, ra, 0
";

/// `n` blocks, each branching to a pseudo-random other block and falling
/// through: a dense irreducible mesh.
pub fn irreducible_mesh(n: usize) -> String {
    let mut src = String::from("main:\n li a0, 100\n");
    for i in 0..n {
        let target = (i * 17 + 5) % n;
        src.push_str(&format!(
            "b{i}:\n addi a0, a0, -1\n bne a0, zero, b{target}\n"
        ));
    }
    src.push_str(" out a0\n halt\n");
    src
}

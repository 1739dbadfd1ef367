//! The centralized network compiler service.
//!
//! §3.4: "A compiler within the network can perform the translation for
//! that platform ahead of time and thus amortize its startup costs over
//! larger amounts of code. Resource investments in the compiler then
//! benefit all clients in an organization." The service compiles whole
//! classes per target, caches the images, and reports amortization
//! statistics.
//!
//! Each class goes through the same lowering and pass pipeline as the
//! optimizing execution tier ([`dvm_exec::compile_class`]); only the
//! final step, [`lower`], is per target. A method `dvm-exec` declines
//! stays on the interpreter: it gets no image and is counted in
//! [`CompileStats::skipped`].

use std::collections::HashMap;

use dvm_classfile::ClassFile;
use dvm_exec::{compile_class, CompileStats, Result};

use crate::target::{lower, NativeMethod, Target};

/// A compiled class: one native image per lowered method.
#[derive(Debug, Clone)]
pub struct ClassImage {
    /// Class internal name.
    pub class: String,
    /// Target compiled for.
    pub target: Target,
    /// Lowered methods.
    pub methods: Vec<NativeMethod>,
    /// Methods lowered and skipped, and the pass pipeline's work.
    pub compile_stats: CompileStats,
    /// Simulated cycles the compilation itself cost (charged to the
    /// server).
    pub compile_cycles: u64,
}

impl ClassImage {
    /// Total native code size.
    pub fn total_size(&self) -> u64 {
        self.methods.iter().map(|m| m.code_size).sum()
    }
}

/// Compiler service statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompilerStats {
    /// Classes compiled (cache misses).
    pub compilations: u64,
    /// Requests served from the image cache (the amortization benefit).
    pub cache_hits: u64,
    /// Total simulated compile cycles spent.
    pub cycles_spent: u64,
}

/// Simulated compile cost per bytecode instruction (aggressive server-side
/// optimization is ~10× the cost of a client JIT's quick pass).
pub const COMPILE_CYCLES_PER_INSN: u64 = 2_000;

/// The network compiler.
#[derive(Debug, Default)]
pub struct NetworkCompiler {
    cache: HashMap<(String, Target), ClassImage>,
    /// Statistics.
    pub stats: CompilerStats,
}

impl NetworkCompiler {
    /// Creates an empty compiler service.
    pub fn new() -> NetworkCompiler {
        NetworkCompiler::default()
    }

    /// Compiles `cf` for `target`, serving repeats from the cache.
    pub fn compile(&mut self, cf: &ClassFile, target: Target) -> Result<ClassImage> {
        let class = cf.name()?.to_owned();
        if let Some(img) = self.cache.get(&(class.clone(), target)) {
            self.stats.cache_hits += 1;
            return Ok(img.clone());
        }
        let (ir, compile_stats) = compile_class(cf)?;
        let methods = ir
            .methods
            .iter()
            .map(|f| lower(&class, f, target))
            .collect();
        let compile_cycles = compile_stats.bytecode_insns as u64 * COMPILE_CYCLES_PER_INSN;
        let img = ClassImage {
            class: class.clone(),
            target,
            methods,
            compile_stats,
            compile_cycles,
        };
        self.stats.compilations += 1;
        self.stats.cycles_spent += compile_cycles;
        self.cache.insert((class, target), img.clone());
        Ok(img)
    }

    /// Number of cached images.
    pub fn cache_size(&self) -> usize {
        self.cache.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvm_bytecode::asm::Asm;
    use dvm_bytecode::insn::Kind;
    use dvm_bytecode::{Code, Insn};
    use dvm_classfile::{AccessFlags, Attribute, ClassBuilder, ConstPool, MemberInfo};

    fn sample_class() -> ClassFile {
        let mut cf = ClassBuilder::new("t/Calc").build();
        let mut a = Asm::new(2);
        a.iconst(2)
            .iconst(3)
            .iadd()
            .iload(0)
            .iadd()
            .ret_val(Kind::Int);
        let attr = a.finish().unwrap().encode(&cf.pool).unwrap();
        let n = cf.pool.utf8("f").unwrap();
        let d = cf.pool.utf8("(I)I").unwrap();
        cf.methods.push(MemberInfo {
            access: AccessFlags::PUBLIC | AccessFlags::STATIC,
            name_index: n,
            descriptor_index: d,
            attributes: vec![Attribute::Code(attr)],
        });
        cf
    }

    #[test]
    fn compiles_and_caches_per_target() {
        let mut nc = NetworkCompiler::new();
        let cf = sample_class();
        let img1 = nc.compile(&cf, Target::X86).unwrap();
        assert_eq!(img1.methods.len(), 1);
        assert!(img1.compile_stats.passes.folded >= 1, "2+3 should fold");
        assert!(img1.compile_cycles > 0);

        // Second client, same target: amortized.
        let _ = nc.compile(&cf, Target::X86).unwrap();
        assert_eq!(nc.stats.compilations, 1);
        assert_eq!(nc.stats.cache_hits, 1);

        // Different target: new image.
        let img2 = nc.compile(&cf, Target::Alpha).unwrap();
        assert_eq!(nc.stats.compilations, 2);
        assert_ne!(img1.total_size(), img2.total_size());
        assert_eq!(nc.cache_size(), 2);
    }

    #[test]
    fn declined_methods_stay_interpreted_without_failing_the_class() {
        let pool = ConstPool::new();
        // A `jsr` subroutine, which `dvm-exec` does not lower.
        let jsr = Code {
            insns: vec![
                Insn::Jsr(2),
                Insn::Return(None),
                Insn::Store(Kind::Ref, 0),
                Insn::Ret(0),
            ],
            handlers: vec![],
            max_locals: 1,
        };
        let mut plain = Asm::new(1);
        plain.iload(0).ret_val(Kind::Int);
        let static_ = AccessFlags::PUBLIC | AccessFlags::STATIC;
        let cf = ClassBuilder::new("t/Mixed")
            .method(static_, "sub", "()V", jsr.encode(&pool).unwrap())
            .method(
                static_,
                "id",
                "(I)I",
                plain.finish().unwrap().encode(&pool).unwrap(),
            )
            .build();
        let mut nc = NetworkCompiler::new();
        let img = nc.compile(&cf, Target::X86).unwrap();
        assert_eq!(nc.cache_size(), 1);
        assert_eq!(img.compile_stats.lowered, 1);
        assert_eq!(img.compile_stats.skipped, 1);
        assert_eq!(img.methods.len(), 1);
        assert_eq!(img.methods[0].name, "t/Mixed.id:(I)I");
        // Compile cost is charged for every decoded bytecode instruction.
        assert_eq!(img.compile_cycles, 6 * COMPILE_CYCLES_PER_INSN);
    }
}

//! Fixture: elsewhere in the engine crate, matching on the variants (in
//! every pattern position) and building them in test code are both fine.

use crate::proof::ComponentProof;

pub fn is_unsearched(component: &ComponentProof) -> bool {
    if let ComponentProof::MemUnsearched { .. } = component {
        return true;
    }
    let by_match = match component {
        ComponentProof::MemUnsearched { .. } | ComponentProof::RunUnsearched { .. } => true,
        ComponentProof::RunSearched {
            entries,
            ..
        } if entries.is_empty() => false,
        _ => false,
    };
    by_match || matches!(component, ComponentProof::RunUnsearched { .. })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_code_may_build_components() {
        let c = ComponentProof::MemUnsearched { root: [0u8; 32] };
        assert!(is_unsearched(&c));
    }
}

//! Human-readable names for SIC2 industry codes.
//!
//! The paper's companies span 83 SIC2 industries ("Health Services",
//! "Agricultural Services", …). The full four-digit taxonomy is large; for
//! display purposes the two-digit *major group* name is what the sales tool
//! shows, and the division (range) name is a robust fallback for codes
//! without a specific entry.

use crate::company::Sic2;

/// Division name by SIC2 range (the top level of the SIC taxonomy).
pub(crate) fn division_name(code: Sic2) -> &'static str {
    match code.0 {
        1..=9 => "Agriculture, Forestry and Fishing",
        10..=14 => "Mining",
        15..=17 => "Construction",
        20..=39 => "Manufacturing",
        40..=49 => "Transportation and Public Utilities",
        50..=51 => "Wholesale Trade",
        52..=59 => "Retail Trade",
        60..=67 => "Finance, Insurance and Real Estate",
        70..=89 => "Services",
        91..=97 => "Public Administration",
        99 => "Nonclassifiable Establishments",
        _ => "Unknown",
    }
}

/// Major-group name for the SIC2 codes the install-base domain encounters
/// most, falling back to the division name.
pub fn major_group_name(code: Sic2) -> &'static str {
    match code.0 {
        1 => "Agricultural Production - Crops",
        2 => "Agricultural Production - Livestock",
        7 => "Agricultural Services",
        10 => "Metal Mining",
        13 => "Oil and Gas Extraction",
        15 => "General Building Contractors",
        20 => "Food and Kindred Products",
        27 => "Printing and Publishing",
        28 => "Chemicals and Allied Products",
        35 => "Industrial Machinery and Equipment",
        36 => "Electronic and Other Electric Equipment",
        37 => "Transportation Equipment",
        40 => "Railroad Transportation",
        45 => "Transportation by Air",
        48 => "Communications",
        49 => "Electric, Gas and Sanitary Services",
        50 => "Wholesale Trade - Durable Goods",
        51 => "Wholesale Trade - Nondurable Goods",
        53 => "General Merchandise Stores",
        58 => "Eating and Drinking Places",
        60 => "Depository Institutions",
        62 => "Security and Commodity Brokers",
        63 => "Insurance Carriers",
        65 => "Real Estate",
        70 => "Hotels and Other Lodging Places",
        73 => "Business Services",
        78 => "Motion Pictures",
        80 => "Health Services",
        82 => "Educational Services",
        87 => "Engineering and Management Services",
        91 => "Executive, Legislative and General Government",
        _ => division_name(code),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_examples_resolve() {
        // The two industries the paper names explicitly.
        assert_eq!(major_group_name(Sic2(80)), "Health Services");
        assert_eq!(major_group_name(Sic2(7)), "Agricultural Services");
    }

    #[test]
    fn fallback_uses_division() {
        assert_eq!(major_group_name(Sic2(33)), "Manufacturing");
        assert_eq!(major_group_name(Sic2(55)), "Retail Trade");
        assert_eq!(major_group_name(Sic2(75)), "Services");
    }

    #[test]
    fn every_code_has_a_name() {
        for code in 0..=u8::MAX {
            let name = major_group_name(Sic2(code));
            assert!(!name.is_empty());
        }
        assert_eq!(division_name(Sic2(0)), "Unknown");
        assert_eq!(division_name(Sic2(98)), "Unknown");
    }

    #[test]
    fn divisions_cover_the_generator_range() {
        // The generator emits SIC2 codes 0..=82; all but 0 and the real SIC
        // gaps (18-19 and 68-69 are unassigned in the taxonomy) must
        // classify.
        for code in 1..=82u8 {
            if matches!(code, 18 | 19 | 68 | 69) {
                continue;
            }
            assert_ne!(division_name(Sic2(code)), "Unknown", "code {code}");
        }
    }
}

// Known-bad fixture for densim-unseeded-entropy: a raw string literal
// holding one double quote must not hide the code after it. A
// tokenizer that reads R"( as an ordinary string ends that string at
// the inner quote and then treats the rest of the file as string
// text, so the entropy source below would go unseen.
#include <random>

const char *kBanner = R"(say "hi)";

unsigned int bannerSeed()
{
    std::random_device rd; // Ambient hardware entropy.
    return rd();
}

// The sweep deliberately omits the second scheme.
static const char *allSpecs[] = {
    "good:14",
};

int
specCount()
{
    return static_cast<int>(sizeof(allSpecs) / sizeof(allSpecs[0]));
}
